package obs

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Event is one entry on the /debug/events surface: a connection or batch
// lifecycle moment with enough labels to correlate against logs and
// metrics. Level is the event's severity (a zero Level is stamped with the
// type's default on Add); TraceID, when nonzero, links the event to its
// batch's spans on /debug/trace.
type Event struct {
	Time       time.Time `json:"time"`
	Type       string    `json:"type"`
	Level      Level     `json:"level,omitempty"`
	Session    uint64    `json:"session,omitempty"`
	Scheme     string    `json:"scheme,omitempty"`
	Detail     string    `json:"detail,omitempty"`
	Txns       int       `json:"txns,omitempty"`
	Batches    uint64    `json:"batches,omitempty"`
	DurationMS float64   `json:"duration_ms,omitempty"`
	TraceID    uint64    `json:"trace_id,omitempty"`
}

// Level is an event severity, ordered debug < info < warn < error.
type Level string

// Event severities.
const (
	LevelDebug Level = "debug"
	LevelInfo  Level = "info"
	LevelWarn  Level = "warn"
	LevelError Level = "error"
)

// levelRank orders severities for min_level filtering; unknown levels rank
// below debug so a typo filters nothing out by accident.
func levelRank(l Level) int {
	switch l {
	case LevelDebug:
		return 1
	case LevelInfo:
		return 2
	case LevelWarn:
		return 3
	case LevelError:
		return 4
	}
	return 0
}

// ParseEventLevel resolves a severity name, accepting "warning" for warn.
func ParseEventLevel(s string) (Level, bool) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, true
	case "info":
		return LevelInfo, true
	case "warn", "warning":
		return LevelWarn, true
	case "error":
		return LevelError, true
	}
	return "", false
}

// defaultLevel maps each well-known event type to its severity; types this
// package does not know default to info.
func defaultLevel(eventType string) Level {
	switch eventType {
	case EventSlowBatch, EventBusy, EventStateSnapshot:
		return LevelDebug
	case EventHandshakeFailed, EventConnRefused, EventBatchFault,
		EventSlowClient, EventSimcacheError:
		return LevelWarn
	case EventCodecPanic, EventFaultBudget:
		return LevelError
	}
	return LevelInfo
}

// Well-known event types recorded by the gateway.
const (
	EventSessionOpen     = "session_open"
	EventSessionClose    = "session_close"
	EventHandshakeFailed = "handshake_failed"
	EventConnRefused     = "conn_refused"
	EventSlowBatch       = "slow_batch"
	EventDrainBegin      = "drain_begin"
	// EventBatchFault is one recoverable batch failure (malformed or
	// corrupt batch, codec error or panic) answered with a BatchError
	// frame instead of a disconnect.
	EventBatchFault = "batch_fault"
	// EventCodecPanic is a recovered codec panic; the offending batch
	// bytes are quarantined on the poison ring.
	EventCodecPanic = "codec_panic"
	// EventBusy is one batch shed by the admission gate with a Busy reply.
	EventBusy = "busy"
	// EventFaultBudget is one stream killed for exhausting its fault
	// budget; its connection and sibling streams keep serving.
	EventFaultBudget = "fault_budget_disconnect"
	// EventSlowClient is a session torn down because a reply write
	// exhausted the write deadline (the peer stopped reading).
	EventSlowClient = "slow_client"
	// EventSimcacheError is a similarity-cache failure the gateway
	// degraded around: an unbuildable geometry for a session's
	// transaction size.
	EventSimcacheError = "simcache_error"
	// EventStateSnapshot is one session codec state serialized and handed
	// out over a StateSnapshot admin frame; Batches carries the sequence
	// the state is current as of.
	EventStateSnapshot = "state_snapshot"
	// EventStateRestore is a snapshotted codec state installed into a
	// session over a StateRestore admin frame; Batches carries the
	// restored sequence.
	EventStateRestore = "state_restore"
	// EventStreamOpen is one logical stream opened on a protocol-v4
	// multiplexed connection (stream 0, opened implicitly by the
	// handshake, is covered by session_open instead).
	EventStreamOpen = "stream_open"
	// EventStreamClose is one logical stream closed — by the client's
	// StreamClose, or by the gateway killing a stream that exhausted its
	// fault budget while the connection kept serving its siblings.
	EventStreamClose = "stream_close"
)

// EventBuffer retains the most recent events in a fixed ring. It is safe
// for concurrent use; Add is one short mutex hold, so it can sit on
// lifecycle paths (not per-transaction paths) without contention.
type EventBuffer struct {
	mu    sync.Mutex
	ring  []Event
	next  int
	total uint64
}

// NewEventBuffer retains the last n events.
func NewEventBuffer(n int) *EventBuffer {
	if n <= 0 {
		n = 1
	}
	return &EventBuffer{ring: make([]Event, 0, n)}
}

// Add appends one event, evicting the oldest when full. A zero Time is
// stamped with the current time; a zero Level with the type's default.
func (b *EventBuffer) Add(e Event) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if e.Level == "" {
		e.Level = defaultLevel(e.Type)
	}
	b.mu.Lock()
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, e)
	} else {
		b.ring[b.next] = e
		b.next = (b.next + 1) % cap(b.ring)
	}
	b.total++
	b.mu.Unlock()
}

// Total returns the number of events ever added (retained or evicted).
func (b *EventBuffer) Total() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// Snapshot returns the retained events, oldest first.
func (b *EventBuffer) Snapshot() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, 0, len(b.ring))
	out = append(out, b.ring[b.next:]...)
	out = append(out, b.ring[:b.next]...)
	return out
}

// ServeHTTP answers with a JSON document: total event count plus the
// retained window, oldest first. Query parameters filter the window (not
// the total): ?kind= keeps only the named event types (comma-separated),
// ?min_level= drops events below the given severity, ?trace= keeps one
// trace id's events.
func (b *EventBuffer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	events := b.Snapshot()

	if v := q.Get("kind"); v != "" {
		keep := make(map[string]bool)
		for _, k := range strings.Split(v, ",") {
			keep[strings.TrimSpace(k)] = true
		}
		events = filterEvents(events, func(e *Event) bool { return keep[e.Type] })
	}
	if v := q.Get("min_level"); v != "" {
		min, ok := ParseEventLevel(v)
		if !ok {
			http.Error(w, "bad min_level (want debug|info|warn|error)", http.StatusBadRequest)
			return
		}
		rank := levelRank(min)
		events = filterEvents(events, func(e *Event) bool { return levelRank(e.Level) >= rank })
	}
	if v := q.Get("trace"); v != "" {
		id, err := ParseTraceID(v)
		if err != nil {
			http.Error(w, "bad trace id: "+err.Error(), http.StatusBadRequest)
			return
		}
		events = filterEvents(events, func(e *Event) bool { return e.TraceID == id })
	}

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Total  uint64  `json:"total"`
		Events []Event `json:"events"`
	}{b.Total(), events})
}

func filterEvents(events []Event, keep func(*Event) bool) []Event {
	out := events[:0]
	for i := range events {
		if keep(&events[i]) {
			out = append(out, events[i])
		}
	}
	return out
}
