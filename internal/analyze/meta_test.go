package analyze_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexrpc/internal/analyze"
)

// TestEveryCheckHasGoldenFixture is the coverage meta-test: every
// registered check ID must be pinned by at least one golden file —
// presentation checks under testdata/, Go-source checks under
// gocheck/testdata/ — and the golden must actually contain a rendered
// finding for that ID, so a silently-dead analyzer can't hide behind
// an empty file. A retired ID stays retired: no golden, no
// registration, and — because every number up to the highest is either
// registered or retired — no way to drop it from the list and reuse it.
func TestEveryCheckHasGoldenFixture(t *testing.T) {
	covered := map[string]bool{}
	for _, dir := range []string{"testdata", filepath.Join("gocheck", "testdata")} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".golden") || !strings.HasPrefix(name, "fv") {
				continue
			}
			// fv014_idempotent_moves_ownership.golden -> FV014
			id := "FV" + strings.TrimSuffix(name, ".golden")[2:5]
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(data), "["+id+"]") {
				t.Errorf("%s does not contain a rendered %s finding", filepath.Join(dir, name), id)
				continue
			}
			covered[id] = true
		}
	}
	for _, c := range analyze.Checks() {
		if !covered[c.ID] {
			t.Errorf("check %s (%s) has no golden fixture under testdata/ or gocheck/testdata/", c.ID, c.Title)
		}
	}
	for id := range covered {
		if analyze.Lookup(id).ID == "" {
			t.Errorf("golden fixture references unregistered check %s", id)
		}
	}
	retired := map[string]bool{}
	for _, r := range analyze.Retired {
		if retired[r.ID] || r.Reason == "" {
			t.Errorf("retired check %s is listed twice or without a reason", r.ID)
		}
		retired[r.ID] = true
		if covered[r.ID] {
			t.Errorf("retired check %s still has a golden fixture", r.ID)
		}
		if analyze.Lookup(r.ID).ID != "" {
			t.Errorf("retired check %s is registered again: IDs are never reused", r.ID)
		}
	}
	for n := 1; n <= len(analyze.Checks())+len(analyze.Retired); n++ {
		id := fmt.Sprintf("FV%03d", n)
		if analyze.Lookup(id).ID == "" && !retired[id] {
			t.Errorf("%s is neither registered nor retired: a withdrawn ID must stay on the retired list", id)
		}
	}
}
