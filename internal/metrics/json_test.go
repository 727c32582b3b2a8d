package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestAppendJSONFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{1.5, "1.5"},
		{0, "0"},
		{-3e-4, "-0.0003"},
		{1e21, "1e+21"},
		{math.NaN(), "null"},
		{math.Inf(1), "null"},
		{math.Inf(-1), "null"},
	}
	for _, c := range cases {
		got := string(AppendJSONFloat(nil, c.v))
		if got != c.want {
			t.Errorf("AppendJSONFloat(%v) = %q, want %q", c.v, got, c.want)
		}
		if got != "null" {
			var back float64
			if err := json.Unmarshal([]byte(got), &back); err != nil || back != c.v {
				t.Errorf("AppendJSONFloat(%v) = %q does not round-trip (%v, %v)", c.v, got, back, err)
			}
		}
	}
}

func TestSeriesMarshalJSON(t *testing.T) {
	s := &Series{Name: "local-skew"}
	s.Append(0.5, 1e-4)
	s.Append(1.0, math.Inf(-1))
	s.Append(1.5, 2.25e-4)

	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"local-skew","times":[0.5,1,1.5],"values":[0.0001,null,0.000225]}`
	if string(b) != want {
		t.Fatalf("marshal = %s, want %s", b, want)
	}

	var back Series
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name || !reflect.DeepEqual(back.Times, s.Times) {
		t.Fatalf("round trip changed name/times: %+v", back)
	}
	if len(back.Values) != 3 || back.Values[0] != s.Values[0] || back.Values[2] != s.Values[2] {
		t.Fatalf("round trip changed values: %v", back.Values)
	}
	// Non-finite values are lossy by design: null decodes to NaN.
	if !math.IsNaN(back.Values[1]) {
		t.Fatalf("null should decode to NaN, got %v", back.Values[1])
	}
}

func TestSeriesMarshalDeterministic(t *testing.T) {
	s := &Series{Name: "x"}
	for i := 0; i < 100; i++ {
		s.Append(float64(i)*0.1, float64(i)*1.7e-5)
	}
	a, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("series marshalling is not deterministic")
	}
}

func TestSeriesUnmarshalLengthMismatch(t *testing.T) {
	var s Series
	err := json.Unmarshal([]byte(`{"name":"x","times":[1,2],"values":[3]}`), &s)
	if err == nil || !strings.Contains(err.Error(), "2 times but 1 values") {
		t.Fatalf("want length mismatch error, got %v", err)
	}
}

func TestRecorderWriteJSON(t *testing.T) {
	r := NewRecorder(0, "a", "b")
	observe(r, "a", 1, 10)
	observe(r, "b", 1, 20)
	observe(r, "a", 2, 11)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"series":[{"name":"a","times":[1,2],"values":[10,11]},{"name":"b","times":[1],"values":[20]}]}` + "\n"
	if buf.String() != want {
		t.Fatalf("WriteJSON = %s, want %s", buf.String(), want)
	}

	// Subset + order selection.
	buf.Reset()
	if err := r.WriteJSON(&buf, "b"); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != `{"series":[{"name":"b","times":[1],"values":[20]}]}`+"\n" {
		t.Fatalf("WriteJSON(b) = %s", got)
	}

	// Unknown series is an error, mirroring WriteCSV.
	if err := r.WriteJSON(&bytes.Buffer{}, "nope"); err == nil || !strings.Contains(err.Error(), `unknown series "nope"`) {
		t.Fatalf("want unknown-series error, got %v", err)
	}

	// The document must be valid JSON.
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Series []*Series `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v", err)
	}
	if len(doc.Series) != 2 || doc.Series[0].Name != "a" || doc.Series[1].Name != "b" {
		t.Fatalf("decoded document wrong: %+v", doc)
	}
}
