package vid

import "fmt"

// SegMax is the largest segment that may accompany a message. V transferred
// up to 32 Kbytes as a unit over the network (§3.1); larger payloads must be
// split by the application.
const SegMax = 32 * 1024

// Message is the fixed-format V interprocess message: a small fixed part
// (operation code, reply code, six data words — 32 bytes on the wire) plus
// an optional byte segment for bulk data. Requests and replies use the same
// format.
type Message struct {
	// Op is the operation being requested (an OpCode from the owning
	// protocol), or echoed in replies.
	Op uint16
	// Code is the reply/status code; zero means OK.
	Code uint16
	// W holds six 32-bit data words, interpreted per operation.
	W [6]uint32
	// Seg is the optional appended data segment (≤ SegMax bytes).
	Seg []byte
}

// Reply codes shared across all protocols.
const (
	CodeOK uint16 = iota
	// CodeNoProcess: the destination process does not exist.
	CodeNoProcess
	// CodeTimeout: the operation exceeded its retransmission allowance.
	CodeTimeout
	// CodeRefused: the server declined the request.
	CodeRefused
	// CodeBadRequest: malformed or unknown operation.
	CodeBadRequest
	// CodeNoMemory: insufficient memory to honor the request.
	CodeNoMemory
	// CodeNotFound: named object does not exist.
	CodeNotFound
	// CodeFrozen: operation arrived for a frozen logical host and was
	// deferred (internal; callers normally never see it).
	CodeFrozen
	// CodeAborted: the operation was torn down administratively.
	CodeAborted
	// CodeHostDown: the destination's station is suspected dead by the
	// per-host failure detector; the transaction was failed fast instead
	// of riding out the full retransmission allowance.
	CodeHostDown
	// CodeNotLeader: the destination is a replica of a consensus-backed
	// service but not its current leader; the reply's hint word (per
	// protocol) carries the leader's PID when known.
	CodeNotLeader
)

func codeName(c uint16) string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeNoProcess:
		return "no-process"
	case CodeTimeout:
		return "timeout"
	case CodeRefused:
		return "refused"
	case CodeBadRequest:
		return "bad-request"
	case CodeNoMemory:
		return "no-memory"
	case CodeNotFound:
		return "not-found"
	case CodeFrozen:
		return "frozen"
	case CodeAborted:
		return "aborted"
	case CodeHostDown:
		return "host-down"
	case CodeNotLeader:
		return "not-leader"
	default:
		return fmt.Sprintf("code%d", c)
	}
}

// OK reports whether the message carries a success code.
func (m Message) OK() bool { return m.Code == CodeOK }

// Err converts a non-OK reply code into an error, or nil.
func (m Message) Err() error {
	if m.Code == CodeOK {
		return nil
	}
	return CodeError(m.Code)
}

// SendErr folds a Send's two results into one error: the transport's if
// the send aborted, else the reply's code (nil for OK).
func SendErr(m Message, err error) error {
	if err != nil {
		return err
	}
	return m.Err()
}

// CodeError is an error wrapping a V reply code.
type CodeError uint16

func (e CodeError) Error() string { return "v: " + codeName(uint16(e)) }

// ErrMsg builds an error reply with the given code.
func ErrMsg(code uint16) Message { return Message{Code: code} }

// PutString stores s into the segment (helper for name-bearing requests).
func (m *Message) PutString(s string) { m.Seg = []byte(s) }

// SegString returns the segment as a string.
func (m Message) SegString() string { return string(m.Seg) }

func (m Message) String() string {
	return fmt.Sprintf("msg{op=%d %s w=%v seg=%dB}", m.Op, codeName(m.Code), m.W, len(m.Seg))
}
