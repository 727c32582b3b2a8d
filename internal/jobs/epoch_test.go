package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"ftgcs/internal/spec"
)

// epochSpec is the tiny fixed scenario the epoch pin hashes. It runs the
// Appendix C flood beside a handlerless attacker, the part of the
// simulator whose event count is most likely to move.
func epochSpec() spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Topology: spec.Topology{Name: "line", Size: 2},
		Attack:   &spec.Attack{Name: "silent", Clusters: 1},
		Seed:     1,
		Horizon:  spec.Horizon{Seconds: 1},
	}
}

// idWithSuffix is identity()'s formula with the trailing epoch component
// replaced, i.e. the ID another epoch's binary derives for req.
func idWithSuffix(t *testing.T, req Request, suffix string) string {
	t.Helper()
	req = req.normalized()
	c, err := req.Spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(c)
	fmt.Fprintf(h, "|replicate=%d|series=%t%s", req.Replicate, req.IncludeSeries, suffix)
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// TestPreviousEpochObjectIsAMiss: a -store directory written by an older
// binary holds objects under that binary's job IDs. The same request must
// not find them — neither under the epoch-less IDs used through PR 20 nor
// under the epoch just before the current one — and runs afresh.
func TestPreviousEpochObjectIsAMiss(t *testing.T) {
	req := Request{Spec: epochSpec()}
	current, err := req.ID()
	if err != nil {
		t.Fatal(err)
	}
	if got := idWithSuffix(t, req, fmt.Sprintf("|epoch=%d", resultEpoch)); got != current {
		t.Fatalf("the test's ID formula has drifted from identity(): %s vs %s", got, current)
	}

	// A well-formed stored result (this binary's own) under the old IDs.
	m1 := NewManager(Options{Workers: 1})
	st, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(waitDone(t, m1, st.ID).Result)
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()

	store := openStore(t, t.TempDir())
	for _, suffix := range []string{"", fmt.Sprintf("|epoch=%d", resultEpoch-1)} {
		old := idWithSuffix(t, req, suffix)
		if old == st.ID {
			t.Fatalf("the ID under suffix %q equals the current ID", suffix)
		}
		if err := store.Put(old, payload); err != nil {
			t.Fatal(err)
		}
	}

	m2 := NewManager(Options{Workers: 1, Store: store})
	defer m2.Close()
	st2, err := m2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached != "" {
		t.Fatalf("an object stored under a previous epoch's ID was served as a %q hit", st2.Cached)
	}
	waitDone(t, m2, st2.ID)
	if s := m2.Stats(); s.Runs != 1 || s.DiskHits != 0 {
		t.Fatalf("want one fresh run and no disk hit: %+v", s)
	}
}

// TestResultEpochPin ties resultEpoch to the bytes it stands for: the
// SHA-256 of epochSpec's result payload, recorded at the epoch it was
// computed under. Result bytes that change without a bump would let a
// store written by the previous binary serve stale results under the same
// job ID.
func TestResultEpochPin(t *testing.T) {
	const (
		pinnedEpoch = 2
		pinnedSum   = "986e645c8c3c15815ce8bc8f019dc95cc375ba2b1f878320bd131836afa143f7"
	)
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	st, err := m.Submit(Request{Spec: epochSpec()})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(waitDone(t, m, st.ID).Result)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	got := hex.EncodeToString(sum[:])
	switch {
	case resultEpoch != pinnedEpoch:
		t.Fatalf("resultEpoch is %d but the pin was recorded at epoch %d: re-record pinnedEpoch and pinnedSum (now %s)",
			resultEpoch, pinnedEpoch, got)
	case got != pinnedSum:
		t.Fatalf("result bytes changed under epoch %d (payload SHA-256 %s, pinned %s): bump resultEpoch in types.go, "+
			"or a -store directory written by the previous binary serves stale results under unchanged job IDs; then re-record this pin",
			resultEpoch, got, pinnedSum)
	}
}
