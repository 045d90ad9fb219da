package snapshot

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"thinunison/internal/failpoint"
)

// AtomicWriteFile durably replaces path with the bytes produced by write,
// using the temp-file + fsync + rename protocol: write streams the payload
// through a buffered writer straight into a temp file in the same
// directory, which is synced, renamed over path, and the directory synced.
// A crash (or injected fault) at any point leaves either the old file or
// the new one — never a half-written artifact — so a -checkpoint
// interrupted mid-write can never clobber a good older snapshot with a torn
// TUSNAP01 container. An error from write removes the temp file and is
// returned as is.
//
// The failpoint sites snapshot/write (torn payload) and snapshot/fsync
// (failed sync) let chaos schedules exercise both crash windows.
func AtomicWriteFile(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: create temp for %s: %w", path, err)
	}
	// CreateTemp opens 0600; the artifact should carry the usual 0644 (modulo
	// umask, like os.Create).
	tmp.Chmod(0o644)
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	bw := bufio.NewWriter(tmp)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("snapshot: write %s: %w", path, err)
	}
	if f := failpoint.Eval(failpoint.SnapshotWrite); f.Kind == failpoint.FailTorn {
		// Keep a torn prefix, then fail: the temp file is discarded and
		// path is untouched, which is exactly the crash-safety contract.
		if size, err := tmp.Seek(0, io.SeekCurrent); err == nil {
			tmp.Truncate(int64(f.CutAt(int(size))))
		}
		return fmt.Errorf("snapshot: write %s: %w", path, f.Err())
	}
	if f := failpoint.Eval(failpoint.SnapshotFsync); f.Kind == failpoint.FailError {
		return fmt.Errorf("snapshot: sync %s: %w", path, f.Err())
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("snapshot: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: rename %s: %w", path, err)
	}
	// Make the rename itself durable. Some platforms cannot fsync a
	// directory; degrade silently there, the rename is still atomic.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
