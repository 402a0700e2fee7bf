// Requester-side answer checks.
//
// A requester — the client, or bxtproxy on its backend leg — sends Hello,
// StreamOpen or Batch and reads one answer frame back. CheckHello,
// CheckStreamOpen and CheckBatch are the one reading of those answers:
// each sorts a well-formed answer into an AnswerKind, or reports the frame
// damaged with an error wrapping ErrBadFrame, after which the connection
// is out of step and unusable. A HelloOK or StreamOpenOK is read only once
// its seal holds, so damage in transit is never read as a refusal or as
// the negotiated geometry. Callers decide only what each kind means to
// them.
package trace

import (
	"fmt"
	"time"
)

// AnswerKind sorts a well-formed answer to one request.
type AnswerKind uint8

const (
	// AnswerOK is the answer the request asked for: a HelloOK naming
	// ProtocolVersion, a StreamOpenOK with StreamOK, or the BatchReply.
	AnswerOK AnswerKind = iota
	// AnswerRefused declines the request's parameters: an Error frame
	// answering Hello, or StreamRefused answering StreamOpen.
	AnswerRefused
	// AnswerKilled is a StreamClosed for the batch's stream: the peer
	// retired that one stream, and its codec state with it.
	AnswerKilled
	// AnswerBusy is a Busy for the batch: shed unprocessed.
	AnswerBusy
	// AnswerFault is a BatchError for the batch.
	AnswerFault
)

// Answer is one checked answer; only the fields its Kind uses are set.
type Answer struct {
	Kind AnswerKind
	// Msg is the peer's text: a refusal's, a kill's cause, or a
	// BatchError's message.
	Msg string
	// MetaBits and BatchLimit are what a HelloOK or an opening
	// StreamOpenOK negotiated.
	MetaBits, BatchLimit int
	// Payload is a BatchReply's body past its envelope (BatchStats, then
	// the records); it aliases the frame body.
	Payload []byte
	// RetryAfter is a Busy's hint; Reset is a BatchError's codec-reset
	// flag.
	RetryAfter time.Duration
	Reset      bool
}

// CheckHello reads the answer to a Hello.
func CheckHello(ft FrameType, body []byte) (Answer, error) {
	switch ft {
	case FrameError:
		return Answer{Kind: AnswerRefused, Msg: string(body)}, nil
	case FrameHelloOK:
		ok, err := ParseHelloOK(body)
		if err != nil {
			return Answer{}, err
		}
		if ok.Version != ProtocolVersion {
			return Answer{}, fmt.Errorf("%w: hello-ok names protocol version %d, want %d", ErrBadFrame, ok.Version, ProtocolVersion)
		}
		return Answer{MetaBits: ok.MetaBits, BatchLimit: ok.BatchLimit}, nil
	}
	return Answer{}, fmt.Errorf("%w: frame type %#x answering hello", ErrBadFrame, byte(ft))
}

// CheckStreamOpen reads the answer to a StreamOpen for stream sid. An
// Error frame ends the connection, which the requester's reader sees
// before any request does, so here it is a damaged answer like any other
// stray frame.
func CheckStreamOpen(ft FrameType, body []byte, sid uint32) (Answer, error) {
	if ft != FrameStreamOpenOK {
		return Answer{}, fmt.Errorf("%w: frame type %#x answering stream open", ErrBadFrame, byte(ft))
	}
	ok, err := ParseStreamOpenOK(body)
	if err != nil {
		return Answer{}, err
	}
	if ok.ID != sid {
		return Answer{}, fmt.Errorf("%w: stream-open-ok names stream %d, want %d", ErrBadFrame, ok.ID, sid)
	}
	switch ok.Status {
	case StreamOK:
		return Answer{MetaBits: ok.MetaBits, BatchLimit: ok.BatchLimit}, nil
	case StreamRefused:
		return Answer{Kind: AnswerRefused, Msg: ok.Msg}, nil
	}
	// No peer sends another status: the verdict was damaged in transit,
	// and whether the stream opened is unknown.
	return Answer{}, fmt.Errorf("%w: stream-open-ok status %d", ErrBadFrame, ok.Status)
}

// CheckBatch reads the answer to the Batch with batch id id and trace id
// traceID on stream sid. Every answer but a StreamClosed must lead with
// sid; an Error frame, as for CheckStreamOpen, is a damaged answer.
func CheckBatch(ft FrameType, body []byte, sid uint32, id, traceID uint64) (Answer, error) {
	switch ft {
	case FrameStreamClosed:
		rsid, msg, err := ParseStreamClosed(body)
		if err != nil {
			return Answer{}, err
		}
		if rsid != sid {
			return Answer{}, fmt.Errorf("%w: stream-closed names stream %d, want %d", ErrBadFrame, rsid, sid)
		}
		return Answer{Kind: AnswerKilled, Msg: msg}, nil
	}
	rsid, rest, err := SplitStreamID(body)
	if err != nil {
		return Answer{}, err
	}
	if rsid != sid {
		return Answer{}, fmt.Errorf("%w: answer on stream %d, want %d", ErrBadFrame, rsid, sid)
	}
	var a Answer
	var rid uint64
	switch ft {
	case FrameBatchReply:
		var rtrace uint64
		if rid, rtrace, a.Payload, err = OpenTraceEnvelope(rest); err != nil {
			return Answer{}, err
		}
		if rtrace != traceID {
			return Answer{}, fmt.Errorf("%w: reply carries trace %#x, want %#x", ErrBadFrame, rtrace, traceID)
		}
	case FrameBusy:
		a.Kind = AnswerBusy
		rid, a.RetryAfter, err = ParseBusy(rest)
	case FrameBatchError:
		a.Kind = AnswerFault
		rid, a.Reset, a.Msg, err = ParseBatchError(rest)
	default:
		return Answer{}, fmt.Errorf("%w: frame type %#x answering batch", ErrBadFrame, byte(ft))
	}
	if err != nil {
		return Answer{}, err
	}
	if rid != id {
		return Answer{}, fmt.Errorf("%w: answer names batch %d, want %d", ErrBadFrame, rid, id)
	}
	return a, nil
}
