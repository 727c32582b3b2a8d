package cas

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// faultKey derives a well-formed store key from a test label.
func faultKey(i int) string {
	return fmt.Sprintf("sha256:%064x", i+1)
}

// listFiles returns every file under the store's objects tree, split
// into durable objects and leftover temp files.
func listFiles(t *testing.T, dir string) (objects, temps []string) {
	t.Helper()
	err := filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		if strings.HasPrefix(filepath.Base(path), tmpPrefix) {
			temps = append(temps, path)
		} else {
			objects = append(objects, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return objects, temps
}

// TestPutENOSPCMidWriteLeavesNoStrayObject: the disk filling up partway
// through an object surfaces as a Put error, leaves no .obj file (a
// torn envelope must never land under the final name), and does not
// poison the slot — a healed disk stores and reads the key normally.
func TestPutENOSPCMidWriteLeavesNoStrayObject(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	s, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}

	payload := bytes.Repeat([]byte("x"), 4096)
	ffs.FailWritesAfter(headerSize+100, syscall.ENOSPC)
	if err := s.Put(faultKey(0), payload); err == nil {
		t.Fatal("Put on a full disk must fail")
	}
	objects, temps := listFiles(t, dir)
	if len(objects) != 0 {
		t.Fatalf("torn write left objects under the final name: %v", objects)
	}
	if len(temps) != 0 {
		t.Fatalf("torn write left temp files: %v", temps)
	}
	if _, ok := s.Get(faultKey(0)); ok {
		t.Fatal("failed Put must read as a miss")
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("failed Put leaked accounting: len=%d bytes=%d", s.Len(), s.Bytes())
	}

	// Healing the disk heals the slot.
	ffs.Heal()
	if err := s.Put(faultKey(0), payload); err != nil {
		t.Fatalf("Put after heal: %v", err)
	}
	got, ok := s.Get(faultKey(0))
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("healed store does not serve the payload back")
	}
}

// TestPutENOSPCImmediate: a write that fails on the first byte behaves
// the same — error out, no stray files, tmp cleaned up.
func TestPutENOSPCImmediate(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	s, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ffs.FailWrites(syscall.ENOSPC)
	if err := s.Put(faultKey(1), []byte("payload")); err == nil {
		t.Fatal("Put must fail when every write fails")
	}
	objects, temps := listFiles(t, dir)
	if len(objects)+len(temps) != 0 {
		t.Fatalf("stray files after failed Put: obj=%v tmp=%v", objects, temps)
	}
}

// TestPutRenameFailureLeavesNoStrayFile: a Put whose final rename fails
// errors out, leaves neither an object nor its temp file behind, and
// does not touch the index; a healed filesystem stores the key normally.
func TestPutRenameFailureLeavesNoStrayFile(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	s, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("r"), 512)
	ffs.FailRenames(syscall.EIO)
	if err := s.Put(faultKey(2), payload); err == nil {
		t.Fatal("Put must fail when the rename fails")
	}
	objects, temps := listFiles(t, dir)
	if len(objects)+len(temps) != 0 {
		t.Fatalf("stray files after failed rename: obj=%v tmp=%v", objects, temps)
	}
	if s.Len() != 0 {
		t.Fatalf("failed rename changed Len to %d", s.Len())
	}

	ffs.Heal()
	if err := s.Put(faultKey(2), payload); err != nil {
		t.Fatalf("Put after heal: %v", err)
	}
	if got, ok := s.Get(faultKey(2)); !ok || !bytes.Equal(got, payload) {
		t.Fatal("healed store does not serve the payload back")
	}
}

// TestGetOpenFailureKeepsObject: a Get whose open fails for a reason
// other than absence (out of file descriptors) is a miss, but proves
// nothing about the bytes on disk: the acknowledged object, its index
// entry and the Corrupt counter are untouched, and the next Get hits.
func TestGetOpenFailureKeepsObject(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	s, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("o"), 512)
	if err := s.Put(faultKey(3), payload); err != nil {
		t.Fatal(err)
	}
	ffs.FailOpens(syscall.EMFILE)
	if _, ok := s.Get(faultKey(3)); ok {
		t.Fatal("Get with every open failing must miss")
	}
	ffs.Heal()

	if objects, _ := listFiles(t, dir); len(objects) != 1 {
		t.Fatalf("open failure deleted the object: %v", objects)
	}
	if st := s.Stats(); st.Corrupt != 0 || st.Objects != 1 {
		t.Fatalf("open failure counted as corruption: corrupt=%d objects=%d", st.Corrupt, st.Objects)
	}
	if got, ok := s.Get(faultKey(3)); !ok || !bytes.Equal(got, payload) {
		t.Fatal("object unreadable after the open failure healed")
	}

	// The same holds for the scan of a reopened store: the object stays
	// on disk, and a Get after healing adopts it.
	ffs.FailOpens(syscall.EMFILE)
	s2, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ffs.Heal()
	if st := s2.Stats(); st.Corrupt != 0 {
		t.Fatalf("scan counted an open failure as corruption: corrupt=%d", st.Corrupt)
	}
	if got, ok := s2.Get(faultKey(3)); !ok || !bytes.Equal(got, payload) {
		t.Fatal("scan under open failures lost the object")
	}
}

// TestConcurrentGetOnCorruptionIsMissAndRemove: bit rot surfacing while
// many readers race the same key reads as a miss for every one of them
// — never an error, never bad payload bytes — and the corrupt file is
// removed so the slot is honest about being empty.
func TestConcurrentGetOnCorruptionIsMissAndRemove(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	s, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	key := faultKey(2)
	if err := s.Put(key, []byte("precious result bytes")); err != nil {
		t.Fatal(err)
	}

	ffs.CorruptReads(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if payload, ok := s.Get(key); ok {
					t.Errorf("corrupt read served as a hit: %q", payload)
				}
			}
		}()
	}
	wg.Wait()

	objects, _ := listFiles(t, dir)
	if len(objects) != 0 {
		t.Fatalf("corrupt object not removed: %v", objects)
	}
	if st := s.Stats(); st.Corrupt == 0 {
		t.Fatal("corruption not counted")
	}

	// With reads healed the key is simply absent: recompute-and-put
	// works.
	ffs.Heal()
	if _, ok := s.Get(key); ok {
		t.Fatal("removed object still resolvable")
	}
	if err := s.Put(key, []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || string(got) != "recomputed" {
		t.Fatal("recomputed object not served")
	}
}

// TestGCProceedsPastUnremovableFile: an object whose file cannot be
// removed (immutable bit, dying media) must not wedge the GC loop —
// every over-budget entry still leaves the index and the policy
// converges.
func TestGCProceedsPastUnremovableFile(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	now := time.Unix(1000, 0)
	s, err := Open(dir, Options{FS: ffs, MaxBytes: 1 << 20, now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 1024)
	for i := 0; i < 8; i++ {
		now = now.Add(time.Second) // distinct recency order
		if err := s.Put(faultKey(10+i), payload); err != nil {
			t.Fatal(err)
		}
	}

	// Shrink the budget to two objects' worth and make removal fail.
	ffs.FailRemoves(syscall.EPERM)
	s.mu.Lock()
	s.maxBytes = 2 * 1024
	s.mu.Unlock()
	evicted := s.GC()
	if evicted != 6 {
		t.Fatalf("GC evicted %d entries, want 6", evicted)
	}
	if s.Len() != 2 || s.Bytes() != 2*1024 {
		t.Fatalf("index after GC: len=%d bytes=%d, want 2/2048", s.Len(), s.Bytes())
	}

	// The files themselves survived the failed removes; a re-open with a
	// healed disk re-adopts them — the directory is the real state.
	ffs.Heal()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 8 {
		t.Fatalf("re-opened store indexed %d objects, want 8 (files survived)", s2.Len())
	}
}

// TestWithFSSwapsLive: WithFS arms and disarms faults on a store that
// is already open — the hook the manager-level degradation tests use.
func TestWithFSSwapsLive(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(faultKey(20), []byte("before")); err != nil {
		t.Fatal(err)
	}

	ffs := &FaultFS{}
	ffs.FailWrites(syscall.ENOSPC)
	s.WithFS(ffs)
	if err := s.Put(faultKey(21), []byte("during")); err == nil {
		t.Fatal("Put through a broken FS must fail")
	}
	// Reads of intact objects still work through the fault wrapper.
	if got, ok := s.Get(faultKey(20)); !ok || string(got) != "before" {
		t.Fatal("healthy object unreadable through FaultFS")
	}

	s.WithFS(nil) // back to the real filesystem
	if err := s.Put(faultKey(21), []byte("after")); err != nil {
		t.Fatalf("Put after swap-back: %v", err)
	}
}
