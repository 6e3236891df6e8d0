package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed public call of one operation.  Parent names the
// enclosing span of the same operation ("" for the operation's root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects the spans of one operation.  A nil recorder records
// nothing, so the untraced path runs the same code.
type recorder struct {
	epoch time.Time
	op    int
	spans []span
}

// begin opens a span under the span at index parent (-1 for a root) and
// returns its index.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	s := span{Name: name, Op: r.op, Start: int64(time.Since(r.epoch))}
	if parent >= 0 {
		s.Parent = r.spans[parent].Name
	}
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
}

func (r *recorder) take() []span {
	if r == nil {
		return nil
	}
	return r.spans
}

// writeSpans writes spans as JSONL, one object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
