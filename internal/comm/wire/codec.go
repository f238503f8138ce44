package wire

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"temperedlb/internal/comm"
)

// Version is the wire protocol version carried in every frame header.
// Bump it on ANY change to the frame layout, the message body layout,
// or the meaning of an assigned payload id; peers speaking different
// versions refuse each other at the first frame rather than
// misinterpreting bytes.
const Version = 4

// Frame types. A frame is: u32 body length (big-endian, covering the
// two header bytes and the body) | u8 version | u8 type | body.
const (
	frameHello   byte = 1 + iota // handshake: job geometry, sent once per connection
	frameMessage                 // one comm.Message
	frameBye                     // orderly end-of-stream marker; no body
)

// MaxFrameSize bounds a frame's declared length. The runtime's
// messages are tiny (envelopes plus a knowledge vector or an object
// state); anything approaching this limit is a corrupt or hostile
// stream and is rejected before allocation.
const MaxFrameSize = 1 << 24

// maxPayloadDepth bounds Any-payload nesting so a crafted frame cannot
// recurse the decoder into stack exhaustion. Real traffic nests twice
// (object envelope → application payload).
const maxPayloadDepth = 32

// frameHeaderLen is the byte length of the version+type header counted
// inside the frame's declared length.
const frameHeaderLen = 2

// MessageOverhead is what a message frame costs before its payload: the
// length word, the version+type header and the seven fixed fields of
// AppendMessage's body layout. For every message m,
// len(AppendMessage(nil, m)) == MessageOverhead + PayloadSize(m.Data).
const MessageOverhead = 4 + frameHeaderLen + 4 + 4 + 2 + 4 + 8 + 8 + 8

// PayloadID names a registered payload codec on the wire. IDs are part
// of the protocol: the same type must carry the same id in every
// process of a job (and changing an assignment is a Version bump).
// Id 0 is reserved for nil. The runtime owns 1–31, the balancer layers
// 32–63; applications must register at 64 and above.
type PayloadID uint16

// payloadEntry is one registered codec, with the typed encode/decode
// functions wrapped to any.
type payloadEntry struct {
	id  PayloadID
	typ reflect.Type
	enc func(*Encoder, any)
	dec func(*Decoder) any
}

// registry is one immutable snapshot of the registered codecs. Every
// sized, encoded or decoded payload looks its codec up, from every sending
// goroutine at once, so a lookup is one atomic load and a map read — no
// lock, whose reader count is a write to a line every core shares.
// RegisterPayload, normally run at init time, copies the snapshot, adds to
// the copy and publishes it.
type registry struct {
	byType map[reflect.Type]*payloadEntry
	byID   map[PayloadID]*payloadEntry
}

var (
	regMu      sync.Mutex // serializes RegisterPayload's copy-and-publish
	registered atomic.Pointer[registry]
)

// RegisterPayload installs the wire codec for payload type T under the
// given id. Both ends of a job must register the same types under the
// same ids (normally via package init, so importing the package that
// owns the type is enough). Registering a duplicate id or type panics:
// payload identity is protocol, not configuration.
//
// The encode function must emit a deterministic byte sequence — fixed
// field order, fixed widths — because transport bytes feed accounting
// that experiments compare across runs.
func RegisterPayload[T any](id PayloadID, enc func(*Encoder, T), dec func(*Decoder) T) {
	if id == 0 {
		panic("wire: RegisterPayload: id 0 is reserved for nil payloads")
	}
	var zero T
	typ := reflect.TypeOf(zero)
	if typ == nil {
		panic("wire: RegisterPayload: T must not be an interface type")
	}
	e := &payloadEntry{
		id:  id,
		typ: typ,
		enc: func(en *Encoder, v any) { enc(en, v.(T)) },
		dec: func(d *Decoder) any { return dec(d) },
	}
	regMu.Lock()
	defer regMu.Unlock()
	old := snapshot()
	if prev, dup := old.byID[id]; dup {
		panic(fmt.Sprintf("wire: payload id %d already registered for %v", id, prev.typ))
	}
	if prev, dup := old.byType[typ]; dup {
		panic(fmt.Sprintf("wire: payload type %v already registered as id %d", typ, prev.id))
	}
	next := &registry{
		byType: make(map[reflect.Type]*payloadEntry, len(old.byType)+1),
		byID:   make(map[PayloadID]*payloadEntry, len(old.byID)+1),
	}
	maps.Copy(next.byType, old.byType)
	maps.Copy(next.byID, old.byID)
	next.byType[typ] = e
	next.byID[id] = e
	registered.Store(next)
}

// snapshot returns the registry as of the call; its maps are never written
// again. Before the first registration it is empty.
func snapshot() *registry {
	if r := registered.Load(); r != nil {
		return r
	}
	return &noCodecs
}

var noCodecs registry

func lookupType(t reflect.Type) *payloadEntry { return snapshot().byType[t] }

func lookupID(id PayloadID) *payloadEntry { return snapshot().byID[id] }

// Encoder appends big-endian fixed-width fields to a buffer. The zero
// value is ready to use; Bytes returns the accumulated encoding.
// Encoders are not goroutine-safe.
type Encoder struct {
	buf []byte

	// sizing is PayloadSize's mode: the encoder runs as usual, except
	// that Rows writes one row and adds the rest to elided, and Any
	// skips a value that has no codec.
	sizing bool
	elided int
}

// Bytes returns the encoded buffer (owned by the encoder until Reset).
func (e *Encoder) Bytes() []byte {
	return e.buf
}

// Reset truncates the encoder, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

func (e *Encoder) U8(v uint8)   { e.buf = append(e.buf, v) }
func (e *Encoder) U16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *Encoder) U32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *Encoder) U64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *Encoder) I32(v int32)  { e.U32(uint32(v)) }
func (e *Encoder) I64(v int64)  { e.U64(uint64(v)) }

// F64 encodes the exact IEEE-754 bits, so a float survives the wire
// bit-identically (including negative zero and NaN payloads).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Rows encodes a slice of n fixed-width rows: a length word that keeps
// nil apart from empty (0 for nil, n+1 otherwise), then the rows, which
// rows(lo, hi) writes for the indices [lo, hi) — every row the same
// number of bytes. It is the codec's one bulk primitive, and the reason
// a payload's size is arithmetic in its slice lengths: an encoder that
// is only sizing asks for the first row and multiplies.
func (e *Encoder) Rows(n int, isNil bool, rows func(lo, hi int)) {
	if isNil {
		e.U32(0)
		return
	}
	e.U32(uint32(n) + 1)
	if e.sizing && n > 1 {
		start := len(e.buf)
		rows(0, 1)
		e.elided += (n - 1) * (len(e.buf) - start)
		return
	}
	rows(0, n)
}

// F64Slice encodes a []float64 as Rows of one F64. Nil-versus-empty is
// protocol: a nil collective payload means "barrier", an empty one is a
// real zero-width result.
func (e *Encoder) F64Slice(v []float64) {
	e.Rows(len(v), v == nil, func(lo, hi int) {
		for _, f := range v[lo:hi] {
			e.F64(f)
		}
	})
}

// Any encodes a registered payload value prefixed by its PayloadID, or
// id 0 for nil. Unregistered types panic with the registration hint:
// sending such a value is a deploy-time wiring bug, not a runtime
// condition to recover from. (PayloadSize, which sizes what the memory
// transport carries unencoded, skips them: no wire form, no bytes.)
func (e *Encoder) Any(v any) {
	if v == nil {
		e.U16(0)
		return
	}
	ent := lookupType(reflect.TypeOf(v))
	if ent == nil {
		if e.sizing {
			return
		}
		panic(fmt.Sprintf("wire: no payload codec registered for %T; register it with wire.RegisterPayload (application ids start at 64)", v))
	}
	e.U16(uint16(ent.id))
	ent.enc(e, v)
}

// encoders recycles the Encoder of AppendMessage and PayloadSize: the
// registered encode functions are called through a func value, so an
// Encoder declared on the stack would be moved to the heap on every
// call. A pooled encoder keeps PayloadSize's scratch buffer in buf.
var encoders = sync.Pool{New: func() any { return new(Encoder) }}

// PayloadSize returns the number of bytes Encoder.Any writes for v —
// the payload id plus the body, 2 for nil — by running v's registered
// encoder, so it cannot disagree with AppendMessage. It is the one
// place a payload is sized: the transport's byte accounting and the
// runtime's migration volume both call it. Slices encoded with Rows
// cost one row, whatever their length. A type with no registered codec
// has no wire form and counts zero (nested in an envelope, the envelope
// alone is counted).
func PayloadSize(v any) int {
	e := encoders.Get().(*Encoder)
	e.sizing = true
	e.Any(v)
	n := len(e.buf) + e.elided
	*e = Encoder{buf: e.buf[:0]}
	encoders.Put(e)
	return n
}

// Decoder reads the Encoder's format back with a sticky error: the
// first failed read records the error and every subsequent read
// returns a zero value without advancing. Decoding malformed input is
// therefore always safe — check Err once at the end. Decoders never
// panic on truncated, oversized or garbage input.
type Decoder struct {
	b     []byte
	off   int
	depth int
	err   error
}

// NewDecoder decodes the given buffer.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Failf records a decoding error from a registered payload codec (for
// validation the primitive readers cannot express, e.g. a claimed
// element count exceeding the remaining bytes). Like every decoder
// error it is sticky: the first one wins.
func (d *Decoder) Failf(format string, args ...any) { d.fail(format, args...) }

// take returns the next n bytes, or nil after recording a truncation
// error.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("truncated input: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *Decoder) I32() int32   { return int32(d.U32()) }
func (d *Decoder) I64() int64   { return int64(d.U64()) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool accepts only the canonical encodings 0 and 1, keeping the wire
// format one-to-one: every value has exactly one byte sequence.
func (d *Decoder) Bool() bool {
	switch b := d.U8(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool byte %d (want 0 or 1)", b)
		return false
	}
}

// Rows reads the length word Encoder.Rows wrote: n rows of width bytes
// each follow, unless isNil. The claim is validated against the
// remaining bytes, so the caller may allocate n rows; a failed read
// reports nil.
func (d *Decoder) Rows(width int) (n int, isNil bool) {
	word := d.U32()
	if word == 0 || d.err != nil {
		return 0, true
	}
	n = int(word - 1)
	if n*width > d.Remaining() {
		d.fail("%d rows of %d bytes exceed %d remaining bytes", n, width, d.Remaining())
		return 0, true
	}
	return n, false
}

// F64Slice decodes F64Slice's nil-preserving layout.
func (d *Decoder) F64Slice() []float64 {
	n, isNil := d.Rows(8)
	if isNil {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.F64()
	}
	return v
}

// Any decodes one registered payload (or nil for id 0). Unknown ids
// and over-deep nesting are recorded as errors, never panics.
func (d *Decoder) Any() any {
	if d.err != nil {
		return nil
	}
	d.depth++
	defer func() { d.depth-- }()
	if d.depth > maxPayloadDepth {
		d.fail("payload nesting deeper than %d", maxPayloadDepth)
		return nil
	}
	id := PayloadID(d.U16())
	if id == 0 || d.err != nil {
		return nil
	}
	ent := lookupID(id)
	if ent == nil {
		d.fail("unknown payload id %d (peer registered a codec this binary lacks?)", id)
		return nil
	}
	return ent.dec(d)
}

// AppendMessage appends one complete message frame (header included)
// for m to buf and returns the extended slice. The message body layout
// is, in order: u32 From, u32 To, u16 Kind, i32 Handler, i64 Seq,
// i64 MsgID, i64 Epoch, then the Any-encoded Data. Encoding is
// deterministic: equal messages produce equal bytes.
func AppendMessage(buf []byte, m comm.Message) []byte {
	e := encoders.Get().(*Encoder)
	scratch := e.buf
	e.buf = buf
	start := beginFrame(e, frameMessage)
	e.U32(uint32(m.From))
	e.U32(uint32(m.To))
	e.U16(uint16(m.Kind))
	e.I32(m.Handler)
	e.I64(m.Seq)
	e.I64(m.MsgID)
	e.I64(m.Epoch)
	e.Any(m.Data)
	buf = endFrame(e, start)
	e.buf = scratch
	encoders.Put(e)
	return buf
}

// DecodeMessage decodes a message frame body (the bytes after the
// version and type header). It errors — never panics — on truncated,
// oversized, trailing-garbage or unregistered-payload input.
func DecodeMessage(body []byte, totalRanks int) (comm.Message, error) {
	return decodeMessage(new(Decoder), body, totalRanks)
}

// decodeMessage is DecodeMessage with the caller's decoder, which it
// resets to body: a connection decodes every frame with its one Decoder
// (registered decode functions are called through a func value, so a
// Decoder made per message would be a heap allocation per message).
func decodeMessage(d *Decoder, body []byte, totalRanks int) (comm.Message, error) {
	*d = Decoder{b: body}
	var m comm.Message
	m.From = int(d.U32())
	m.To = int(d.U32())
	m.Kind = comm.Kind(d.U16())
	m.Handler = d.I32()
	m.Seq = d.I64()
	m.MsgID = d.I64()
	m.Epoch = d.I64()
	m.Data = d.Any()
	if d.err != nil {
		return comm.Message{}, d.err
	}
	if d.Remaining() != 0 {
		return comm.Message{}, fmt.Errorf("wire: %d trailing bytes after message", d.Remaining())
	}
	if m.From < 0 || m.From >= totalRanks || m.To < 0 || m.To >= totalRanks {
		return comm.Message{}, fmt.Errorf("wire: message endpoints %d->%d outside [0,%d)", m.From, m.To, totalRanks)
	}
	if m.Kind < 0 || m.Kind >= comm.MaxKinds {
		return comm.Message{}, fmt.Errorf("wire: message kind %d outside [0,%d)", m.Kind, comm.MaxKinds)
	}
	return m, nil
}

// helloBody is the decoded handshake frame: the sender's identity and
// its view of the job geometry. Every field is validated against the
// receiver's own configuration before any message flows.
type helloBody struct {
	JobID  uint64
	Ranks  int
	Nodes  int
	Node   int
	Lo, Hi int
}

func appendHello(buf []byte, h helloBody) []byte {
	var e Encoder
	e.buf = buf
	start := beginFrame(&e, frameHello)
	e.U64(h.JobID)
	e.U32(uint32(h.Ranks))
	e.U32(uint32(h.Nodes))
	e.U32(uint32(h.Node))
	e.U32(uint32(h.Lo))
	e.U32(uint32(h.Hi))
	return endFrame(&e, start)
}

func decodeHello(body []byte) (helloBody, error) {
	d := NewDecoder(body)
	h := helloBody{
		JobID: d.U64(),
		Ranks: int(d.U32()),
		Nodes: int(d.U32()),
		Node:  int(d.U32()),
		Lo:    int(d.U32()),
		Hi:    int(d.U32()),
	}
	if d.err != nil {
		return helloBody{}, d.err
	}
	if d.Remaining() != 0 {
		return helloBody{}, fmt.Errorf("wire: %d trailing bytes after hello", d.Remaining())
	}
	return h, nil
}

// appendBye appends the empty-body BYE frame.
func appendBye(buf []byte) []byte {
	var e Encoder
	e.buf = buf
	start := beginFrame(&e, frameBye)
	return endFrame(&e, start)
}

// beginFrame reserves the length word and writes the version+type
// header; endFrame backpatches the length.
func beginFrame(e *Encoder, ftype byte) int {
	start := len(e.buf)
	e.U32(0) // length placeholder
	e.U8(Version)
	e.U8(ftype)
	return start
}

func endFrame(e *Encoder, start int) []byte {
	binary.BigEndian.PutUint32(e.buf[start:], uint32(len(e.buf)-start-4))
	return e.buf
}
