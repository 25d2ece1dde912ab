package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"casc/internal/model"
)

// This file defines the arrival-event stream format behind scenario
// record/replay: one JSONL file holds a meta header followed by every
// worker and task arrival of a run, enough to re-feed batch.Run (or a
// sharded server.Platform) and reproduce the original decision trace bitwise.

// Event kinds.
const (
	EventMeta   = "meta"
	EventWorker = "worker"
	EventTask   = "task"
)

// ReplayMeta is the header record of an event stream: the run
// configuration a replayer needs to rebuild the exact simulation the
// events were recorded under.
type ReplayMeta struct {
	// Scenario names the spec the stream was generated from.
	Scenario string `json:"scenario,omitempty"`
	// Seed is the scenario seed; replays reuse it for the quality model
	// and for per-component solver seed derivation.
	Seed int64 `json:"seed"`
	// Rounds is the number of batch rounds recorded.
	Rounds int `json:"rounds"`
	// B is the least required group size.
	B int `json:"b"`
	// Solver names the solver the original run dispatched with.
	Solver string `json:"solver"`
	// Universe is the quality-model size (total distinct worker IDs).
	Universe int `json:"universe"`
}

// Event is one arrival of an event stream. Exactly one of Meta, Worker or
// Task is set, per Kind.
type Event struct {
	Kind   string        `json:"kind"`
	Round  int           `json:"round,omitempty"`
	Meta   *ReplayMeta   `json:"meta,omitempty"`
	Worker *model.Worker `json:"worker,omitempty"`
	Task   *model.Task   `json:"task,omitempty"`
	// Class is the SLO class name of a task arrival ("" when the scenario
	// declares no classes).
	Class string `json:"class,omitempty"`
}

// WriteEvents writes a meta header followed by the events as JSON Lines.
func WriteEvents(w io.Writer, meta ReplayMeta, events []Event) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(Event{Kind: EventMeta, Meta: &meta}); err != nil {
		return fmt.Errorf("trace: events meta: %w", err)
	}
	for i, ev := range events {
		if ev.Kind == EventMeta {
			return fmt.Errorf("trace: event %d: duplicate meta record", i)
		}
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
	}
	return nil
}

// ReadEvents parses an event stream: the leading meta header and the
// arrivals in file order. Arrival events must carry the matching payload
// and non-negative rounds.
func ReadEvents(r io.Reader) (ReplayMeta, []Event, error) {
	var meta ReplayMeta
	var out []Event
	sawMeta := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return meta, nil, fmt.Errorf("trace: events line %d: %w", line, err)
		}
		switch ev.Kind {
		case EventMeta:
			if sawMeta {
				return meta, nil, fmt.Errorf("trace: events line %d: second meta record", line)
			}
			if ev.Meta == nil {
				return meta, nil, fmt.Errorf("trace: events line %d: meta record without payload", line)
			}
			meta, sawMeta = *ev.Meta, true
		case EventWorker:
			if ev.Worker == nil {
				return meta, nil, fmt.Errorf("trace: events line %d: worker event without payload", line)
			}
			if ev.Round < 0 {
				return meta, nil, fmt.Errorf("trace: events line %d: negative round", line)
			}
			out = append(out, ev)
		case EventTask:
			if ev.Task == nil {
				return meta, nil, fmt.Errorf("trace: events line %d: task event without payload", line)
			}
			if ev.Round < 0 {
				return meta, nil, fmt.Errorf("trace: events line %d: negative round", line)
			}
			out = append(out, ev)
		default:
			return meta, nil, fmt.Errorf("trace: events line %d: unknown kind %q", line, ev.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return meta, nil, fmt.Errorf("trace: %w", err)
	}
	if !sawMeta {
		return meta, nil, fmt.Errorf("trace: event stream has no meta header")
	}
	return meta, out, nil
}

// ReadEventsFile loads an event stream from a file.
func ReadEventsFile(path string) (ReplayMeta, []Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return ReplayMeta{}, nil, err
	}
	defer f.Close()
	return ReadEvents(f)
}
