package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Record is one journal entry: a small operation descriptor plus an
// opaque JSON payload owned by the caller. Seq is assigned by Append in
// strictly increasing order (replay re-derives the next sequence).
type Record struct {
	Seq  uint64          `json:"seq"`
	Op   string          `json:"op"`
	ID   string          `json:"id,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Journal is a write-ahead log: append-only JSONL, one record per line,
// each line prefixed with a CRC-32 of its JSON so replay can tell a clean
// record from a torn or corrupted one. Appends are fsync'd before they
// return — an acknowledged record survives a crash an instant later.
//
// Line format:
//
//	crc32-hex <space> {"seq":…,"op":…,"id":…,"data":…} <newline>
//
// Replay (OpenJournal) stops at the first line that fails its CRC or
// doesn't parse: everything before it is returned, everything from it on
// is discarded and truncated away, which is exactly the torn-tail
// semantics a crash mid-append produces. A tear is counted in
// gpp_journal_torn_total but is not an error — it is the expected shape
// of a crash.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	w       *bufio.Writer
	nextSeq uint64
	appends int // since last compact, drives auto-compaction hints
}

// OpenJournal opens (creating if needed) the journal at path, replays the
// existing records, truncates any torn tail, and returns the journal
// positioned for appends plus the replayed records in order.
func OpenJournal(path string) (*Journal, []Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("store: journal: %w", err)
	}
	recs, goodLen, torn := replay(raw)
	if torn {
		mJournalTorn.Inc()
	}
	// Truncate a torn tail before appending: a new record must never sit
	// after garbage, or the next replay would stop at the garbage and
	// lose it. The truncated copy is fsync'd before the rename and the
	// rename is fsync'd after it, so the records appended next never sit
	// in a file a crash could leave unwritten or unlinked.
	if goodLen < len(raw) {
		if err := writeSynced(path+".tmp", raw[:goodLen]); err != nil {
			return nil, nil, err
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			return nil, nil, fmt.Errorf("store: journal: %w", err)
		}
		syncDir(filepath.Dir(path))
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: journal: %w", err)
	}
	j := &Journal{path: path, f: f, w: bufio.NewWriter(f)}
	for _, r := range recs {
		if r.Seq >= j.nextSeq {
			j.nextSeq = r.Seq + 1
		}
	}
	mJournalReplayed.Add(int64(len(recs)))
	return j, recs, nil
}

// replay parses raw into clean records, returning the byte length of the
// clean prefix and whether a tear (bad CRC / parse / truncation) was hit.
func replay(raw []byte) (recs []Record, goodLen int, torn bool) {
	off := 0
	for off < len(raw) {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			return recs, off, true // unterminated final line = torn append
		}
		line := raw[off : off+nl]
		rec, ok := parseLine(line)
		if !ok {
			return recs, off, true
		}
		recs = append(recs, rec)
		off += nl + 1
	}
	return recs, off, false
}

func parseLine(line []byte) (Record, bool) {
	sp := bytes.IndexByte(line, ' ')
	if sp != 8 {
		return Record{}, false
	}
	want, err := strconv.ParseUint(string(line[:sp]), 16, 32)
	if err != nil {
		return Record{}, false
	}
	payload := line[sp+1:]
	if crc32.ChecksumIEEE(payload) != uint32(want) {
		return Record{}, false
	}
	var rec Record
	if json.Unmarshal(payload, &rec) != nil {
		return Record{}, false
	}
	return rec, true
}

func appendLine(dst []byte, rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return dst, fmt.Errorf("store: journal: %w", err)
	}
	dst = append(dst, fmt.Sprintf("%08x ", crc32.ChecksumIEEE(payload))...)
	dst = append(dst, payload...)
	return append(dst, '\n'), nil
}

// Append writes one record (Seq assigned here) and fsyncs it before
// returning. The assigned record is returned so callers can track the
// sequence of what they wrote.
func (j *Journal) Append(rec Record) (Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return Record{}, fmt.Errorf("store: journal: closed")
	}
	rec.Seq = j.nextSeq
	line, err := appendLine(nil, rec)
	if err != nil {
		return Record{}, err
	}
	if _, err := j.w.Write(line); err != nil {
		return Record{}, fmt.Errorf("store: journal: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return Record{}, fmt.Errorf("store: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return Record{}, fmt.Errorf("store: journal: %w", err)
	}
	j.nextSeq++
	j.appends++
	mJournalRecords.Inc()
	return rec, nil
}

// AppendsSinceCompact reports how many records were appended since the
// journal was opened or last compacted — the caller's signal for when a
// Compact is worth the rewrite.
func (j *Journal) AppendsSinceCompact() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// Compact atomically rewrites the journal to contain exactly live (in the
// given order, original sequence numbers preserved), dropping everything
// else — the replay/compact cycle that keeps a long-running daemon's log
// proportional to its live state instead of its history.
func (j *Journal) Compact(live []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("store: journal: closed")
	}
	var buf []byte
	var err error
	for _, rec := range live {
		if buf, err = appendLine(buf, rec); err != nil {
			return err
		}
	}
	tmp := j.path + ".compact"
	if err := writeSynced(tmp, buf); err != nil {
		return err
	}
	// Swap the live file under the append handle: close, rename, reopen.
	// Appends are excluded by mu for the whole window, so no write can
	// land on the closed handle.
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	syncDir(filepath.Dir(j.path))
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: journal: reopen after compact: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.appends = 0
	mJournalCompactions.Inc()
	return nil
}

// writeSynced writes data to a fresh file at name and fsyncs it, the first
// half of replacing the journal: a rename only exposes synced bytes.
func writeSynced(name string, data []byte) error {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	return nil
}

// Close flushes and closes the journal file. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.w.Flush()
	if serr := j.f.Sync(); err == nil {
		err = serr
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
