package pipeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/wire"
)

// Source yields tasks in input order with dense sequence numbers starting at
// zero. Next returns io.EOF after the last task; any other error aborts the
// run (per-document problems travel inside the Task instead, see
// Task.invalid).
type Source interface {
	Next() (*Task, error)
}

// DefaultMaxLineBytes bounds one NDJSON input line when the caller does not
// choose a limit — the same envelope the HTTP surface enforces per body.
const DefaultMaxLineBytes = 8 << 20

// taskLine is the NDJSON input envelope as encoding/json decodes the lines
// outside wire.DecodeTaskLine's common shape; its name is part of the
// error texts written on bulk and stream lines.
type taskLine wire.TaskLine

// NDJSONSource reads one task per JSON line. Blank lines are skipped; a
// malformed or oversized line becomes a Task with an inline error rather
// than ending the stream, so a single corrupt record cannot sink a corpus
// run. Sequence numbers count every non-blank line (including invalid
// ones), keeping Seq assignment stable across resumed runs.
//
// Lines are decoded by wire.DecodeTaskLine (the one-pass envelope decoder,
// with json.Unmarshal's semantics) or json.Unmarshal straight from the read
// buffer, which is reused line after line: a task's strings are copies and
// never alias it. Lines longer than the read buffer are assembled in a
// fresh slice.
type NDJSONSource struct {
	r       *bufio.Reader
	maxLine int
	seq     int
	done    bool
}

// ndjsonReadBuffer sizes the line reader so a typical document's line
// arrives in one read-buffer slice, decoded without a copy.
const ndjsonReadBuffer = 64 << 10

// NewNDJSONSource wraps r; maxLine bounds one line's bytes (0 selects
// DefaultMaxLineBytes).
func NewNDJSONSource(r io.Reader, maxLine int) *NDJSONSource {
	if maxLine <= 0 {
		maxLine = DefaultMaxLineBytes
	}
	return &NDJSONSource{r: bufio.NewReaderSize(r, ndjsonReadBuffer), maxLine: maxLine}
}

// Next returns the next task or io.EOF.
func (s *NDJSONSource) Next() (*Task, error) {
	for {
		if s.done {
			return nil, io.EOF
		}
		line, tooLong, err := s.readLine()
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, err
		}
		if errors.Is(err, io.EOF) {
			s.done = true
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 && !tooLong {
			continue
		}
		t := &Task{Seq: s.seq}
		s.seq++
		if tooLong {
			t.invalid = fmt.Errorf("input line exceeds the %d-byte limit", s.maxLine)
			return t, nil
		}
		tl, ok := wire.DecodeTaskLine(line)
		if !ok {
			if err := json.Unmarshal(line, (*taskLine)(&tl)); err != nil {
				t.invalid = fmt.Errorf("bad input line: %w", err)
				return t, nil
			}
		}
		t.ID = tl.ID
		t.Ontology = tl.Ontology
		t.SeparatorList = tl.SeparatorList
		t.Shard = tl.Shard
		t.Mode, t.Doc, t.invalid = tl.Document()
		return t, nil
	}
}

// readLine reads up to the next newline. The line is valid until the next
// call: it is a slice of the read buffer when it fits there, else a fresh
// copy.
// When the line exceeds maxLine it is drained and reported with
// tooLong=true so the stream can continue at the following line.
func (s *NDJSONSource) readLine() (line []byte, tooLong bool, err error) {
	frag, err := s.r.ReadSlice('\n')
	if !errors.Is(err, bufio.ErrBufferFull) {
		if len(frag) > s.maxLine {
			return nil, true, err
		}
		return frag, false, err
	}
	var buf []byte
	for {
		if !tooLong {
			buf = append(buf, frag...)
			if len(buf) > s.maxLine {
				tooLong = true
				buf = nil
			}
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			break
		}
		frag, err = s.r.ReadSlice('\n')
	}
	if tooLong {
		return nil, true, err
	}
	return buf, false, err
}

// DirSource yields one task per document file in dir (non-recursive), sorted
// by name so sequence assignment is stable. Files ending in .xml are parsed
// with XML semantics; everything else (.html, .htm, ...) as HTML. The file
// name becomes the task ID; the constructor's ontology and shard apply to
// every task (per-document shards need NDJSON input).
type DirSource struct {
	dir      string
	files    []string
	i        int
	seq      int
	ontology string
	shard    string
}

// NewDirSource lists dir's regular files. ontologySrc and shard are applied
// to every task (the CLI's -ontology / -shard flags).
func NewDirSource(dir, ontologySrc, shard string) (*DirSource, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	return &DirSource{dir: dir, files: files, ontology: ontologySrc, shard: shard}, nil
}

// Next returns the next file's task or io.EOF.
func (s *DirSource) Next() (*Task, error) {
	if s.i >= len(s.files) {
		return nil, io.EOF
	}
	name := s.files[s.i]
	s.i++
	t := &Task{Seq: s.seq, ID: name, Ontology: s.ontology, Shard: s.shard}
	s.seq++
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		t.invalid = err
		return t, nil
	}
	t.Doc = string(data)
	t.Mode = "html"
	if strings.EqualFold(filepath.Ext(name), ".xml") {
		t.Mode = "xml"
	}
	return t, nil
}

// SliceSource yields pre-built tasks — the programmatic entry point used by
// tests and embedders. Seq fields are (re)assigned densely in order.
type SliceSource struct {
	tasks []*Task
	i     int
}

// NewSliceSource copies the slice and assigns sequence numbers.
func NewSliceSource(tasks []*Task) *SliceSource {
	out := make([]*Task, len(tasks))
	for i, t := range tasks {
		c := *t
		c.Seq = i
		out[i] = &c
	}
	return &SliceSource{tasks: out}
}

// Next returns the next task or io.EOF.
func (s *SliceSource) Next() (*Task, error) {
	if s.i >= len(s.tasks) {
		return nil, io.EOF
	}
	t := s.tasks[s.i]
	s.i++
	return t, nil
}
