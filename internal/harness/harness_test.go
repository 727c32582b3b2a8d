package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:     "EX",
		Title:  "demo",
		Claim:  "claim text",
		Header: []string{"a", "bb"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	tbl.AddNote("note %d", 7)
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"EX", "demo", "claim text", "333", "note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	exps := All()
	if len(exps) != 14 {
		t.Fatalf("registry has %d experiments, want 14", len(exps))
	}
	for i, e := range exps {
		if e.ID != (&Table{ID: e.ID}).ID || e.Run == nil || e.Title == "" {
			t.Errorf("experiment %d malformed: %+v", i, e)
		}
		if idNum(e.ID) != i+1 {
			t.Errorf("experiment order broken at %s", e.ID)
		}
	}
	if _, err := ByID("E5"); err != nil {
		t.Errorf("ByID(E5): %v", err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("ByID(E99) should fail")
	}
}

func TestOkFail(t *testing.T) {
	if okFail(true) != "ok" || okFail(false) != "VIOLATED" {
		t.Error("okFail markers")
	}
}
