// Package core is the stub compiler driver: the three-stage pipeline
// of the paper's §3. A front-end parses an existing IDL (CORBA or
// Sun) into the neutral IR; the presentation stage computes the
// default presentation by fixed rules and applies an optional PDL
// file; back-ends then consume the (contract, presentation) pair —
// the interpreted runtime stubs, or the Go source generator.
//
// The separation is load-bearing: everything before the presentation
// stage defines the network contract shared by all endpoints;
// everything after it is private to one endpoint.
package core

import (
	"fmt"

	"flexrpc/internal/idl"
	"flexrpc/internal/idl/corba"
	"flexrpc/internal/idl/migdefs"
	"flexrpc/internal/idl/sunxdr"
	"flexrpc/internal/ir"
	"flexrpc/internal/pdl"
	"flexrpc/internal/pres"
)

// Frontend selects the IDL dialect to parse.
type Frontend int

// Supported front-ends.
const (
	// FrontendCORBA parses CORBA IDL.
	FrontendCORBA Frontend = iota
	// FrontendSunXDR parses Sun RPC .x files.
	FrontendSunXDR
	// FrontendMIG parses Mach Interface Generator .defs files.
	FrontendMIG
)

func (f Frontend) String() string {
	switch f {
	case FrontendCORBA:
		return "corba"
	case FrontendSunXDR:
		return "sun"
	case FrontendMIG:
		return "mig"
	}
	return fmt.Sprintf("Frontend(%d)", int(f))
}

// FrontendByName resolves a front-end from its CLI name.
func FrontendByName(name string) (Frontend, error) {
	switch name {
	case "corba":
		return FrontendCORBA, nil
	case "sun", "sunxdr", "xdr":
		return FrontendSunXDR, nil
	case "mig", "defs":
		return FrontendMIG, nil
	}
	return 0, fmt.Errorf("core: unknown front-end %q (want corba, sun or mig)", name)
}

// Options configure one compilation.
type Options struct {
	Frontend Frontend
	Filename string
	Source   string
	// Interface selects which interface of the file to compile;
	// empty means the file must contain exactly one.
	Interface string
	// Style selects the default presentation rules; the zero value
	// is the CORBA mapping.
	Style pres.Style
	// PDL optionally modifies the presentation; PDLFilename is used
	// in its error messages.
	PDL         string
	PDLFilename string
}

// Compiled is the result of the first two compiler stages: the
// network contract plus this endpoint's presentation.
type Compiled struct {
	File  *ir.File
	Iface *ir.Interface
	Pres  *pres.Presentation
}

// Compile runs the front-end and presentation stages.
func Compile(o Options) (*Compiled, error) {
	var file *ir.File
	var err error
	switch o.Frontend {
	case FrontendCORBA:
		file, err = corba.Parse(o.Filename, o.Source)
	case FrontendSunXDR:
		file, err = sunxdr.Parse(o.Filename, o.Source)
	case FrontendMIG:
		file, err = migdefs.Parse(o.Filename, o.Source)
	default:
		return nil, fmt.Errorf("core: unknown front-end %v", o.Frontend)
	}
	if err != nil {
		return nil, err
	}
	iface, err := selectInterface(file, o.Interface, o.Source)
	if err != nil {
		return nil, err
	}
	style := o.Style
	if o.Style == pres.StyleCORBA {
		// Each front-end's natural mapping is its default style.
		switch o.Frontend {
		case FrontendSunXDR:
			style = pres.StyleSun
		case FrontendMIG:
			style = pres.StyleMIG
		}
	}
	c := &Compiled{File: file, Iface: iface, Pres: pres.Default(iface, style)}
	if o.PDL != "" {
		name := o.PDLFilename
		if name == "" {
			name = "(inline pdl)"
		}
		if err := pdl.Apply(c.Pres, name, o.PDL); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// selectInterface picks the interface to compile from file, parsed
// from src. An error about the file as a whole is positioned at its end.
func selectInterface(file *ir.File, name, src string) (*ir.Interface, error) {
	if name != "" {
		iface := file.Interface(name)
		if iface == nil {
			return nil, fmt.Errorf("core: interface %q not found in %s", name, file.Name)
		}
		return iface, nil
	}
	switch len(file.Interfaces) {
	case 0:
		return nil, idl.Errorf(idl.EndPos(file.Name, src), "core: the file declares no interfaces")
	case 1:
		return file.Interfaces[0], nil
	default:
		names := make([]string, len(file.Interfaces))
		for i, iface := range file.Interfaces {
			names[i] = iface.Name
		}
		return nil, idl.Errorf(idl.EndPos(file.Name, src), "core: the file declares %d interfaces %v; select one", len(names), names)
	}
}

// WithPDL derives a new endpoint presentation from the compiled
// interface's default by applying a PDL file. The original is
// unchanged — each endpoint of a connection typically calls this
// with its own PDL (paper §3: "each can have its own PDL file").
func (c *Compiled) WithPDL(filename, src string) (*Compiled, error) {
	p := pres.Default(c.Iface, c.Pres.Style)
	if err := pdl.Apply(p, filename, src); err != nil {
		return nil, err
	}
	return &Compiled{File: c.File, Iface: c.Iface, Pres: p}, nil
}

// DefaultPres derives a fresh default presentation in the given
// style for the compiled interface.
func (c *Compiled) DefaultPres(style pres.Style) *pres.Presentation {
	return pres.Default(c.Iface, style)
}
