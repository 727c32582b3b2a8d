package metrics

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func TestWriteCSV(t *testing.T) {
	r := NewRecorder(0, "a", "b")
	observe(r, "a", 0, 1)
	observe(r, "a", 1, 2)
	observe(r, "b", 1, 10)
	observe(r, "b", 2, 20)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(rows) != 4 { // header + t=0,1,2
		t.Fatalf("rows = %d, want 4: %v", len(rows), rows)
	}
	if strings.Join(rows[0], ",") != "time,a,b" {
		t.Errorf("header = %v", rows[0])
	}
	// t=0: a=1, b empty.
	if rows[1][1] != "1" || rows[1][2] != "" {
		t.Errorf("row t=0: %v", rows[1])
	}
	// t=1: both present.
	if rows[2][1] != "2" || rows[2][2] != "10" {
		t.Errorf("row t=1: %v", rows[2])
	}
	// t=2: only b.
	if rows[3][1] != "" || rows[3][2] != "20" {
		t.Errorf("row t=2: %v", rows[3])
	}
}

func TestWriteCSVSelectedSeries(t *testing.T) {
	r := NewRecorder(0, "a", "b")
	observe(r, "a", 0, 1)
	observe(r, "b", 0, 2)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf, "b"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "time,b") {
		t.Errorf("selected header: %q", buf.String())
	}
	if err := r.WriteCSV(&buf, "missing"); err == nil {
		t.Error("unknown series accepted")
	}
}

func TestWriteCSVEmptyRecorder(t *testing.T) {
	r := NewRecorder(0)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("empty recorder: %v", err)
	}
	if strings.TrimSpace(buf.String()) != "time" {
		t.Errorf("empty output: %q", buf.String())
	}
}
