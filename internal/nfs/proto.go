// Package nfs reproduces the paper's §4.1 Linux NFS client
// experiment: an NFS-subset file server reached over Sun RPC/XDR on
// a (shaped) network link, and a monolithic-kernel NFS client whose
// read stubs come in four variants — {conventional, user-space
// buffer presentation} x {hand-coded, generated} — exactly the four
// bars of Figure 2.
//
// The conventional presentation unmarshals read data into an
// intermediate kernel buffer and then copies it out to the user
// process; the [special] presentation (Figure 1's PDL) unmarshals
// straight into the user buffer with the kernel's copy-out routine,
// eliminating the intermediate buffer. The hand-coded stubs do
// manually what the generated ones do automatically, reproducing the
// paper's "essentially no performance difference between hand-coded
// and automatically-generated stubs" claim.
package nfs

import (
	"flexrpc/internal/core"
)

// XFile is the NFS-subset protocol definition (a trimmed NFS v2 .x
// file in rpcgen dialect).
const XFile = `
const NFS_FHSIZE = 32;
const NFS_MAXDATA = 8192;

typedef opaque nfs_fh[NFS_FHSIZE];
typedef opaque nfsdata<NFS_MAXDATA>;

enum nfsstat {
	NFS_OK = 0,
	NFSERR_NOENT = 2,
	NFSERR_IO = 5,
	NFSERR_FBIG = 27
};

struct fattr {
	unsigned fileid;
	unsigned size;
	unsigned blocksize;
	unsigned mtime;
};

struct readargs {
	nfs_fh file;
	unsigned offset;
	unsigned count;
	unsigned totalcount;
};

struct readres {
	nfsstat status;
	fattr attributes;
	nfsdata data;
};

struct writeargs {
	nfs_fh file;
	unsigned beginoffset;
	unsigned offset;
	unsigned totalcount;
	nfsdata data;
};

struct attrstat {
	nfsstat status;
	fattr attributes;
};

program NFS_PROGRAM {
	version NFS_VERSION {
		void NFSPROC_NULL(void) = 0;
		attrstat NFSPROC_GETATTR(nfs_fh) = 1;
		readres NFSPROC_READ(readargs) = 6;
		attrstat NFSPROC_WRITE(writeargs) = 8;
	} = 2;
} = 100003;
`

// SpecialPDL is the client-side presentation of the paper's Figure 1
// adapted to the .x dialect: the read result (whose data field
// carries the file bytes) is unmarshaled by programmer-provided
// routines using the kernel's copy-out path.
const SpecialPDL = `
interface NFS_PROGRAM_NFS_VERSION {
	[comm_status] NFSPROC_READ([special] return);
};`

// Protocol constants.
const (
	FHSize  = 32
	MaxData = 8192

	ProcGetattr = 1
	ProcRead    = 6
	ProcWrite   = 8

	StatOK    = 0
	StatNoEnt = 2
	StatIO    = 5
)

// Compile parses the protocol and returns its compilation (Sun
// style defaults).
func Compile() (*core.Compiled, error) {
	return core.Compile(core.Options{
		Frontend: core.FrontendSunXDR,
		Filename: "nfs.x",
		Source:   XFile,
	})
}

// FH is an NFS file handle.
type FH [FHSize]byte

// RootFH returns the handle of the server's single exported file.
func RootFH() FH {
	var fh FH
	copy(fh[:], "flexrpc-nfs-root-file-handle!!!!")
	return fh
}

// Attr mirrors the fattr struct.
type Attr struct {
	FileID    uint32
	Size      uint32
	BlockSize uint32
	MTime     uint32
}
