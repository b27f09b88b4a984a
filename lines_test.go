package flexrpc_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// lineAreas are the module's areas in the order their prefixes are
// tried: a non-test Go file counts toward the first area one of whose
// directories holds it, or toward "rest".
var lineAreas = []struct {
	name string
	dirs []string
}{
	{"internal/runtime", []string{"internal/runtime"}},
	{"internal/transport", []string{"internal/transport"}},
	{"internal/sunrpc", []string{"internal/sunrpc"}},
	{"internal/experiments", []string{"internal/experiments"}},
	{"compiler", []string{"internal/idl", "internal/ir", "internal/pres", "internal/pdl", "internal/core", "internal/codegen"}},
}

// pinnedLines is the number of non-test Go lines in each area. Growth
// is paid for: a change that adds lines raises its pin and says why in
// CHANGES.md, and one that removes lines lowers it.
var pinnedLines = map[string]int{
	"internal/runtime":     5554,
	"internal/transport":   1834,
	"internal/sunrpc":      1760,
	"internal/experiments": 2876,
	"compiler":             4620,
	"rest":                 12602,
}

// TestLineRatchet counts the non-test Go lines of every area — bench/
// and testdata included; hidden directories and the benchmark's build
// directory skipped — and fails on any difference from the pins,
// printing the new counts. Run it alone with ./ci.sh lines.
func TestLineRatchet(t *testing.T) {
	got := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got[lineArea(filepath.ToSlash(path))] += bytes.Count(src, []byte("\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var diff []string
	for area := range pinnedLines {
		if got[area] != pinnedLines[area] {
			diff = append(diff, fmt.Sprintf("%s: %d lines, pinned %d (%+d)", area, got[area], pinnedLines[area], got[area]-pinnedLines[area]))
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		t.Fatalf("non-test Go lines moved; update pinnedLines and say why in CHANGES.md:\n\t%s", strings.Join(diff, "\n\t"))
	}
	total := 0
	for _, n := range got {
		total += n
	}
	t.Logf("%d non-test Go lines: %v", total, got)
}

func lineArea(path string) string {
	for _, a := range lineAreas {
		for _, dir := range a.dirs {
			if strings.HasPrefix(path, dir+"/") {
				return a.name
			}
		}
	}
	return "rest"
}
