package rules

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// EventKind is one alert state transition. The numeric codes are the
// on-disk representation: transitions are persisted as samples in
// reserved "_incident/<rule>/<instance>" series, so the incident
// timeline rides the store's existing FTSB checkpoint for free.
type EventKind int

const (
	// EvPending: condition true, waiting out the for-duration.
	EvPending EventKind = 1
	// EvFiring: the alert fired (an incident opened).
	EvFiring EventKind = 2
	// EvResolved: a firing alert's condition cleared (incident closed).
	EvResolved EventKind = 3
	// EvCancelled: a pending alert cleared before firing.
	EvCancelled EventKind = 4
)

func (k EventKind) String() string {
	switch k {
	case EvPending:
		return "pending"
	case EvFiring:
		return "firing"
	case EvResolved:
		return "resolved"
	case EvCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the kind as its name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the names emitted by MarshalJSON.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return err
	}
	for _, cand := range []EventKind{EvPending, EvFiring, EvResolved, EvCancelled} {
		if cand.String() == s {
			*k = cand
			return nil
		}
	}
	return fmt.Errorf("rules: unknown event kind %q", s)
}

// Event is one entry of the incident timeline.
type Event struct {
	Seq      uint64    `json:"seq"`
	At       time.Time `json:"at"`
	Rule     string    `json:"rule"`
	Instance string    `json:"instance,omitempty"`
	Kind     EventKind `json:"kind"`
	Value    float64   `json:"value"`
}

// Incident is one deduplicated alert episode: at most one open
// incident exists per (rule, instance) at a time.
type Incident struct {
	ID         uint64    `json:"id"`
	Rule       string    `json:"rule"`
	Instance   string    `json:"instance,omitempty"`
	Severity   string    `json:"severity"`
	PendingAt  time.Time `json:"pending_at"`
	FiredAt    time.Time `json:"fired_at"`
	ResolvedAt time.Time `json:"resolved_at,omitempty"`
	Value      float64   `json:"value"`
}

// Timeline is the bounded append-only event log. When full, the
// oldest events are dropped and counted; Seq stays globally monotone
// so a reader can detect the gap.
type Timeline struct {
	events  []Event
	start   int
	n       int
	seq     uint64
	dropped uint64
}

// timelineCap is how many events an engine's timeline retains.
const timelineCap = 1024

func newTimeline(capacity int) *Timeline {
	return &Timeline{events: make([]Event, capacity)}
}

func (tl *Timeline) append(ev Event) {
	ev.Seq = tl.seq
	tl.seq++
	i := (tl.start + tl.n) % len(tl.events)
	tl.events[i] = ev
	if tl.n < len(tl.events) {
		tl.n++
	} else {
		tl.start = (tl.start + 1) % len(tl.events)
		tl.dropped++
	}
}

// snapshot copies the retained events oldest-first.
func (tl *Timeline) snapshot() []Event {
	out := make([]Event, tl.n)
	for i := 0; i < tl.n; i++ {
		out[i] = tl.events[(tl.start+i)%len(tl.events)]
	}
	return out
}

// text renders the retained events in the canonical one-line-per-event
// form hashed by digest: "seq at rule instance kind value".
func (tl *Timeline) text() string {
	var b strings.Builder
	for i := 0; i < tl.n; i++ {
		ev := tl.events[(tl.start+i)%len(tl.events)]
		fmt.Fprintf(&b, "%d %s %s %s %s %g\n",
			ev.Seq, ev.At.UTC().Format(time.RFC3339Nano),
			ev.Rule, ev.Instance, ev.Kind, ev.Value)
	}
	return b.String()
}

// digest is the SHA-256 of text(): the replay byte-identity anchor.
func (tl *Timeline) digest() string {
	sum := sha256.Sum256([]byte(tl.text()))
	return hex.EncodeToString(sum[:])
}
