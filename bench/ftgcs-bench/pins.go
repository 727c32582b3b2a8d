package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"os"
	"strconv"
)

// pin is one correctness checkpoint: after Ops counted ops and Rows result
// rows, the running SHA-256 over every row's skew columns
// (MaxIntraClusterSkew, MaxLocalSkew, MaxGlobalSkew as IEEE-754 bits, in
// that order) and, for the human reader, the last row itself. Event counts
// are deliberately not part of a row: an optimisation may change how many
// events a simulation takes, never what skew it measures.
type pin struct {
	Rows   int        `json:"rows"`
	Ops    int        `json:"ops"`
	SHA256 string     `json:"sha256"`
	Last   [3]float64 `json:"last_intra_local_global"`
}

// pinnedSeeds are the seeds whose pins are committed in bench/expected.json:
// a run of one of them that finds none recorded fails instead of passing
// unchecked. Tune on the first and confirm a claim on the second.
var pinnedSeeds = []int64{1, 2}

// expectedFile is bench/expected.json: workload → seed → pins in row
// order. A seed outside pinnedSeeds has no entry: its runs are checked by
// the invariants and cross-checks only.
type expectedFile map[string]map[string][]pin

// loadExpected reads the recorded pins. Only a recording run may start
// from a missing file.
func loadExpected(path string, record bool) (expectedFile, error) {
	b, err := os.ReadFile(path)
	if record && errors.Is(err, fs.ErrNotExist) {
		return expectedFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var f expectedFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// record replaces the pins of one workload and seed and rewrites the file.
func (f expectedFile) record(path, workload string, seed int64, pins []pin) error {
	if f[workload] == nil {
		f[workload] = map[string][]pin{}
	}
	f[workload][strconv.FormatInt(seed, 10)] = pins
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checker folds result rows into the running digest, takes a pin every
// `every` rows and one more when the run ends, and compares each with the
// pin recorded for the same row and op count; a mismatch fails every op
// since the previous pin. The periodic pins therefore hold for any
// --seconds, the final one for the run length it was recorded at.
type checker struct {
	every   int
	want    map[[2]int]pin // by {rows, ops}
	led     *opLedger
	h       hash.Hash
	rows    int
	last    [3]float64
	got     []pin
	checked int // how many of got had a recorded pin
}

func newChecker(want []pin, every int, led *opLedger) *checker {
	c := &checker{every: every, want: map[[2]int]pin{}, led: led, h: sha256.New()}
	for _, p := range want {
		c.want[[2]int{p.Rows, p.Ops}] = p
	}
	return c
}

// row adds one result row, produced when ops counted ops were complete.
func (c *checker) row(ops int, intra, local, global float64) {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(intra))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(local))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(global))
	c.h.Write(buf[:])
	c.rows++
	c.last = [3]float64{intra, local, global}
	if c.rows%c.every == 0 {
		c.take(ops)
	}
}

// finish takes the final pin, over every row of the run, unless the last
// row was a checkpoint already.
func (c *checker) finish(ops int) {
	if len(c.got) == 0 || c.got[len(c.got)-1].Rows != c.rows {
		c.take(ops)
	}
}

func (c *checker) take(ops int) {
	prev := 0
	if len(c.got) > 0 {
		prev = c.got[len(c.got)-1].Ops
	}
	p := pin{Rows: c.rows, Ops: ops, SHA256: hex.EncodeToString(c.h.Sum(nil)), Last: c.last}
	c.got = append(c.got, p)
	w, ok := c.want[[2]int{p.Rows, p.Ops}]
	if !ok {
		return
	}
	c.checked++
	if w != p {
		c.led.fail(prev, ops, "skew columns differ from the recorded pin: got %+v, want %+v", p, w)
	}
}
