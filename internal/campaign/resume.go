package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"

	"thinunison/internal/failpoint"
)

// This file makes campaign JSONL output crash- and cancel-safe. Records are
// appended in fsynced groups of whole lines (one record per group through
// Append, any number through AppendBatch), with a CRC-32C per record kept in
// a sidecar file (path + ".crc"), so an interrupted campaign (SIGKILL, power
// loss, ^C mid-write) — or any later corruption of the file, not just clean
// truncation — is detected on reopen. OpenResumable salvages the longest
// verified prefix of complete records, truncates the rest, and hands the
// caller an append-only log plus the set of scenarios already accounted for:
// a resumed campaign re-runs only the missing tail and the combined file is
// byte-identical to an uninterrupted run.
//
// The checksums live in a sidecar rather than inline precisely to preserve
// that byte-identity: the main JSONL must match WriteJSONL output exactly.
// The sidecar is advisory — if it is lost, OpenResumable falls back to
// parse-only validation (the pre-CRC behavior); if it disagrees with the
// main file, the main file is truncated at the first mismatch.

// resumeKey identifies a completed record. Seed is part of the key: it
// derives from the campaign seed, so resuming with a different -seed
// matches nothing and re-runs everything rather than splicing two
// incompatible campaigns into one file.
type resumeKey struct {
	index int
	seed  int64
}

// resumeCRCTable is the per-record checksum polynomial (Castagnoli, same as
// the snapshot container).
var resumeCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ResumableLog is a crash-safe JSONL record log opened by OpenResumable.
type ResumableLog struct {
	path string
	f    *os.File
	crc  *os.File
	done map[resumeKey]bool

	next    int   // scenario index the next durable record must carry
	size    int64 // main-file length at the last record boundary
	crcSize int64 // sidecar length at the last record boundary

	// Recovered is the number of complete records salvaged from the
	// previous run; TruncatedBytes is the length of the tail dropped to get
	// back to a verified record boundary (0 for a clean file).
	Recovered      int
	TruncatedBytes int
}

// crcPath returns the sidecar path for a log file.
func crcPath(path string) string { return path + ".crc" }

// readSidecar loads the per-record checksums, one lowercase hex word per
// line. A missing or unreadable sidecar yields nil (parse-only fallback); a
// malformed line ends the list there, checks beyond it fall back too.
func readSidecar(path string) []uint32 {
	data, err := os.ReadFile(crcPath(path))
	if err != nil {
		return nil
	}
	var sums []uint32
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		v, err := strconv.ParseUint(line, 16, 32)
		if err != nil {
			break
		}
		sums = append(sums, uint32(v))
	}
	return sums
}

// OpenResumable opens (or creates) path as a resumable campaign log. The
// existing content is scanned as JSONL records and verified against the CRC
// sidecar: the salvaged prefix is the longest run of complete, parseable,
// checksum-valid records with contiguous scenario indices from 0. Everything
// after it — a torn line from a mid-write crash, a bit-flipped record, an
// interleaved foreign record — is truncated away, the sidecar is rewritten
// to match, and the file is left positioned for append.
func OpenResumable(path string) (*ResumableLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	sums := readSidecar(path)
	l := &ResumableLog{path: path, f: f, done: make(map[resumeKey]bool)}
	keep := 0
	for keep < len(data) {
		nl := bytes.IndexByte(data[keep:], '\n')
		if nl < 0 {
			break // torn tail: the crash hit mid-line
		}
		line := data[keep : keep+nl+1]
		var rec Record
		if err := json.Unmarshal(line[:nl], &rec); err != nil {
			break // torn or corrupt: truncate from here
		}
		if rec.Scenario != l.next {
			break // out-of-order record: not an append-only prefix
		}
		if l.next < len(sums) && crc32.Checksum(line, resumeCRCTable) != sums[l.next] {
			break // bit rot the parser did not catch
		}
		l.done[resumeKey{index: rec.Scenario, seed: rec.Seed}] = true
		l.next++
		l.Recovered++
		keep += nl + 1
	}
	if keep < len(data) {
		l.TruncatedBytes = len(data) - keep
		if err := f.Truncate(int64(keep)); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign: truncate torn record: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(keep), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l.size = int64(keep)
	if err := l.rewriteSidecar(data[:keep]); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// rewriteSidecar regenerates the sidecar from the salvaged prefix, so a
// lost, stale or truncated sidecar heals on reopen.
func (l *ResumableLog) rewriteSidecar(prefix []byte) error {
	crc, err := os.OpenFile(crcPath(l.path), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("campaign: open crc sidecar: %w", err)
	}
	bw := bufio.NewWriter(crc)
	var n int64
	for len(prefix) > 0 {
		nl := bytes.IndexByte(prefix, '\n')
		line := prefix[:nl+1]
		written, _ := fmt.Fprintf(bw, "%08x\n", crc32.Checksum(line, resumeCRCTable))
		n += int64(written)
		prefix = prefix[nl+1:]
	}
	if err := bw.Flush(); err != nil {
		crc.Close()
		return err
	}
	if err := crc.Sync(); err != nil {
		crc.Close()
		return err
	}
	l.crc = crc
	l.crcSize = n
	return nil
}

// Done reports whether sc already has a complete record in the log.
func (l *ResumableLog) Done(sc Scenario) bool {
	return l.done[resumeKey{index: sc.Index, seed: sc.Seed}]
}

// Append makes rec durable on its own: AppendBatch of one record.
func (l *ResumableLog) Append(rec Record) error {
	_, err := l.AppendBatch([]Record{rec})
	return err
}

// DurablePrefix returns how many leading records of recs extend a durable
// prefix whose next scenario index is next: it stops at the first record
// that is cancelled or does not carry the next index. A ResumableLog makes
// exactly these records durable, and a log without a file (the daemon
// without a state directory) publishes exactly these.
func DurablePrefix(next int, recs []Record) int {
	for i, rec := range recs {
		if rec.Cancelled() || rec.Scenario != next+i {
			return i
		}
	}
	return len(recs)
}

// AppendBatch makes a group of records durable, in index order: one write
// and fsync for all their JSONL lines, then one for all their checksums in
// the sidecar. It returns how many leading records of recs are durable;
// the file and the sidecar end byte-identical to one Append per record.
// Two classes of record are not durable:
//
//   - Cancelled records (campaign shutdown mid-scenario) are skipped, so the
//     scenario is re-run on -resume and the file keeps the append-only
//     prefix invariant that makes resumed output byte-identical.
//   - Records beyond a gap (a cancelled campaign's out-of-order flush:
//     some scenario before them never produced a durable record) are
//     skipped too — persisting them would break the prefix, and -resume
//     re-runs them anyway.
//
// Either stops the group there (DurablePrefix): every later record lies
// past the gap. A record *behind* the durable prefix is a hard error and
// the group is refused: it means the log belongs to a different campaign
// (e.g. another -seed), and splicing would corrupt both.
func (l *ResumableLog) AppendBatch(recs []Record) (int, error) {
	n := DurablePrefix(l.next, recs)
	if n < len(recs) && !recs[n].Cancelled() && recs[n].Scenario < l.next+n {
		return 0, fmt.Errorf("campaign: record %d out of order in %s (next is %d; different campaign seed? use a fresh -out file)",
			recs[n].Scenario, l.path, l.next+n)
	}
	if n == 0 {
		return 0, nil
	}
	var lines, sums bytes.Buffer
	for _, rec := range recs[:n] {
		start := lines.Len()
		if err := AppendJSONL(&lines, rec); err != nil {
			return 0, err
		}
		fmt.Fprintf(&sums, "%08x\n", crc32.Checksum(lines.Bytes()[start:], resumeCRCTable))
	}
	first, last := recs[0].Scenario, recs[n-1].Scenario
	if err := appendDurable(l.f, &l.size, lines.Bytes()); err != nil {
		return 0, fmt.Errorf("campaign: append records %d-%d: %w", first, last, err)
	}
	for _, rec := range recs[:n] {
		l.done[resumeKey{index: rec.Scenario, seed: rec.Seed}] = true
	}
	l.next += n
	if err := appendDurable(l.crc, &l.crcSize, sums.Bytes()); err != nil {
		// The records themselves are durable; a failed sidecar write costs
		// only the CRC check for them on a later resume (the sidecar is
		// advisory and heals on reopen). Still surface the fault.
		return n, fmt.Errorf("campaign: append crcs for records %d-%d: %w", first, last, err)
	}
	return n, nil
}

// appendDurable writes lines at the saved boundary *size and fsyncs,
// self-repairing torn writes: on failure (injected via the
// campaign/append-record and campaign/append-fsync failpoint sites, or a
// real short write) the file is truncated back to the boundary and the write
// retried, so the log never carries a torn line forward: a group of lines
// lands whole or not at all. The boundary is advanced only on success.
func appendDurable(f *os.File, size *int64, lines []byte) error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		err := func() error {
			if fp := failpoint.Eval(failpoint.CampaignAppend); fp.Kind == failpoint.FailTorn {
				f.Write(lines[:fp.CutAt(len(lines))])
				return fp.Err()
			}
			if _, err := f.Write(lines); err != nil {
				return err
			}
			if fp := failpoint.Eval(failpoint.CampaignFsync); fp.Kind == failpoint.FailError {
				return fp.Err()
			}
			return f.Sync()
		}()
		if err == nil {
			*size += int64(len(lines))
			return nil
		}
		lastErr = err
		// Cut the torn bytes back to the last record boundary before
		// retrying (or giving up): crash-safety demands the on-disk tail is
		// always a record boundary or a single torn group, never two.
		if terr := f.Truncate(*size); terr != nil {
			return fmt.Errorf("%w (and truncate failed: %v)", err, terr)
		}
		if _, serr := f.Seek(*size, io.SeekStart); serr != nil {
			return fmt.Errorf("%w (and seek failed: %v)", err, serr)
		}
	}
	return lastErr
}

// Close closes the log and its sidecar.
func (l *ResumableLog) Close() error {
	if l.crc != nil {
		l.crc.Close()
	}
	return l.f.Close()
}
