// Package wire is the network framing of the detection event stream: a
// versioned, length-prefixed binary encoding of event.Batch plus the
// session control frames (Hello/HelloAck negotiation, Ack windowing,
// Flush, Close/Report) that let an instrumented producer stream its
// events to a remote racedetectd and retrieve the race report when the
// run ends.
//
// # Frame layout
//
// Every frame is a fixed 32-byte header followed by a payload:
//
//	offset  size  field
//	0       4     magic "RDw1" (protocol version is part of the magic)
//	4       1     frame type (Hello, Batch, Ack, ...)
//	5       1     flags (reserved, must be 0)
//	6       2     shard hint (little-endian uint16; 0 = unsharded stream)
//	8       8     session id
//	16      8     sequence number (meaning depends on frame type)
//	24      4     payload length
//	28      4     CRC-32C (Castagnoli) of the payload
//	32      ...   payload
//
// Batch payloads carry event records in the columnar delta-varint format
// (see columnar.go). Control payloads are JSON, which keeps negotiation
// extensible without burning protocol versions. The shard hint lets a
// multi-process ingest tier route frames to shard queues without decoding
// the payload; the reference client always streams the full event stream
// of one execution and sets it to 0.
//
// # Sequence numbers and windowing
//
// Batch frames carry a per-session, strictly increasing batch sequence
// number starting at 1. The server acknowledges progress with Ack frames
// whose sequence is the highest batch applied; the client keeps at most a
// negotiated window of unacknowledged batches in flight, which bounds both
// client resend memory and server ingest queues (backpressure). A batch
// whose sequence is not lastApplied+1 is either a duplicate from a resume
// replay (seq <= lastApplied: acknowledged and dropped) or a protocol
// error (a gap).
//
// Decoding is allocation-recycled: Reader reuses one payload buffer, and
// DecodeColumnarCols fills batches from event's sync.Pool, so a server
// ingesting a steady stream allocates nothing per frame.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/detector"
	"repro/internal/event"
)

// Magic identifies wire-protocol frames ("RDw1" little-endian). It stays
// fixed across protocol versions so that a peer of another version still
// parses the Hello exchange and is refused by Version with a typed error.
const Magic uint32 = 0x31774452

// Version is the protocol version negotiated in Hello frames. It is
// carried redundantly with the magic so a magic-compatible revision can
// still refuse clients by version: version 1 peers could send packed
// 37-byte record batches, which version 2 no longer decodes, so the server
// answers their Hello with CodeBadVersion.
const Version = 2

// HeaderSize is the fixed frame-header length in bytes.
const HeaderSize = 32

// RecSize is the size of one event record with every field stored at its
// full fixed width (op 1, tid 4, size 4, pc 4, addr 8, aux 8, seq 8). It is
// the reference the columnar encoding is measured against:
// wire_raw_bytes_total counts records × RecSize, and
// wire_compression_ratio divides it by the bytes actually encoded.
const RecSize = 37

// DefaultMaxFrameBytes bounds the payload length a Reader accepts. One
// full event.Batch encodes to at most ~96 KiB even when every varint takes
// its widest form (48 B/record); 1 MiB leaves generous headroom for report
// payloads while keeping a malicious length prefix from ballooning server
// memory.
const DefaultMaxFrameBytes = 1 << 20

// Type enumerates the frame types.
type Type uint8

// Frame types. Client→server: Hello, Batch, Flush, Close. Server→client:
// HelloAck, Ack, FlushAck, Report, Error.
const (
	TypeHello Type = 1 + iota
	TypeHelloAck
	TypeBatch
	TypeAck
	TypeFlush
	TypeFlushAck
	TypeClose
	TypeReport
	TypeError
)

func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeHelloAck:
		return "hello-ack"
	case TypeBatch:
		return "batch"
	case TypeAck:
		return "ack"
	case TypeFlush:
		return "flush"
	case TypeFlushAck:
		return "flush-ack"
	case TypeClose:
		return "close"
	case TypeReport:
		return "report"
	case TypeError:
		return "error"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Header is the decoded fixed frame header (CRC and length are handled by
// the codec and not exposed).
type Header struct {
	Type    Type
	Flags   uint8
	Shard   uint16
	Session uint64
	Seq     uint64
}

// Framing errors. Reader returns ErrBadMagic/ErrTooLarge/ErrCRC for frames
// that must not be processed; io errors (including io.ErrUnexpectedEOF for
// truncation) pass through unchanged.
var (
	ErrBadMagic = errors.New("wire: bad frame magic")
	ErrTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrCRC      = errors.New("wire: payload CRC mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the payload CRC-32C every frame carries.
func checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// AppendFrame appends one framed payload to dst and returns the extended
// slice. The payload may be nil (control frames without a body).
func AppendFrame(dst []byte, h Header, payload []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	putHeader(dst[off:], h, uint32(len(payload)), crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

func putHeader(b []byte, h Header, length, crc uint32) {
	binary.LittleEndian.PutUint32(b[0:], Magic)
	b[4] = byte(h.Type)
	b[5] = h.Flags
	binary.LittleEndian.PutUint16(b[6:], h.Shard)
	binary.LittleEndian.PutUint64(b[8:], h.Session)
	binary.LittleEndian.PutUint64(b[16:], h.Seq)
	binary.LittleEndian.PutUint32(b[24:], length)
	binary.LittleEndian.PutUint32(b[28:], crc)
}

// MaxOp is the highest valid operation code; the batch decoder rejects
// records beyond it so corrupted frames cannot smuggle unknown ops into a
// detector dispatch. Raised from OpFree when the Go-native sync ops
// (channel send/recv/ack, WaitGroup add/done/wait) joined the stream; an
// old decoder rejects frames carrying them rather than misapplying.
const MaxOp = event.OpWGWait

// Reader decodes frames from a byte stream, reusing one payload buffer
// across calls (the returned payload is valid only until the next
// ReadFrame).
type Reader struct {
	r        io.Reader
	max      uint32
	head     [HeaderSize]byte
	payload  []byte
	nFrames  uint64
	nPayload uint64
}

// NewReader wraps r with the given payload size limit (0 selects
// DefaultMaxFrameBytes).
func NewReader(r io.Reader, maxFrameBytes uint32) *Reader {
	if maxFrameBytes == 0 {
		maxFrameBytes = DefaultMaxFrameBytes
	}
	return &Reader{r: r, max: maxFrameBytes}
}

// Frames returns the number of frames decoded; PayloadBytes the payload
// bytes consumed. Servers export both as metrics.
func (rd *Reader) Frames() uint64 { return rd.nFrames }

// PayloadBytes returns the total payload bytes decoded.
func (rd *Reader) PayloadBytes() uint64 { return rd.nPayload }

// ReadFrame reads and validates one frame. It returns io.EOF only on a
// clean boundary (no bytes of a new frame read); a frame truncated mid-way
// returns io.ErrUnexpectedEOF.
func (rd *Reader) ReadFrame() (Header, []byte, error) {
	var h Header
	if _, err := io.ReadFull(rd.r, rd.head[:]); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			// io.ReadFull returns EOF only when zero bytes were read.
			return h, nil, err
		}
		return h, nil, err
	}
	if binary.LittleEndian.Uint32(rd.head[0:]) != Magic {
		return h, nil, ErrBadMagic
	}
	h.Type = Type(rd.head[4])
	h.Flags = rd.head[5]
	h.Shard = binary.LittleEndian.Uint16(rd.head[6:])
	h.Session = binary.LittleEndian.Uint64(rd.head[8:])
	h.Seq = binary.LittleEndian.Uint64(rd.head[16:])
	length := binary.LittleEndian.Uint32(rd.head[24:])
	crc := binary.LittleEndian.Uint32(rd.head[28:])
	if length > rd.max {
		return h, nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, length, rd.max)
	}
	if cap(rd.payload) < int(length) {
		rd.payload = make([]byte, length)
	}
	payload := rd.payload[:length]
	if _, err := io.ReadFull(rd.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return h, nil, err
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return h, nil, ErrCRC
	}
	rd.nFrames++
	rd.nPayload += uint64(length)
	return h, payload, nil
}

// ---- control payloads ----

// Hello is the client's opening negotiation. Granularity and the detector
// knobs mirror detector.Config; Workers requests the server-side shard
// count (0 lets the server choose). Resume names an existing session to
// re-attach to after a connection drop; the server replies with the last
// batch sequence it applied so the client can replay only unacknowledged
// batches.
type Hello struct {
	Version          int    `json:"version"`
	Resume           uint64 `json:"resume,omitempty"`
	Granularity      uint8  `json:"granularity"`
	Workers          int    `json:"workers"`
	Window           int    `json:"window"`
	NoInitState      bool   `json:"no_init_state,omitempty"`
	NoInitSharing    bool   `json:"no_init_sharing,omitempty"`
	WriteGuidedReads bool   `json:"write_guided_reads,omitempty"`
	ReadReset        bool   `json:"read_reset,omitempty"`
	ReshareInterval  uint8  `json:"reshare_interval,omitempty"`
	// Trace asks the server to accept FlagTraced batch frames carrying a
	// span-context payload prefix (see trace.go). Absent (false) from
	// pre-trace clients; the client only emits traced frames after the
	// server echoes the grant in HelloAck.Trace.
	Trace bool `json:"trace,omitempty"`
	// Provenance asks the server to run its detectors with the race
	// provenance flight recorder, so every ReportRace in the end-of-session
	// report carries a Prov record. Absent (false) from pre-provenance
	// clients; a pre-provenance server ignores the field and reports races
	// without provenance — the client must treat missing Prov as "server
	// too old", not an error.
	Provenance bool `json:"provenance,omitempty"`
}

// HelloAck is the server's negotiation reply. Window is the granted
// in-flight batch window (≤ the requested one); AckEvery is the server's
// acknowledgement cadence (always ≤ Window/2, or 1, so the window cannot
// wedge); ResumeSeq is the last applied batch sequence (0 for a fresh
// session).
type HelloAck struct {
	SessionID uint64 `json:"session_id"`
	Window    int    `json:"window"`
	AckEvery  int    `json:"ack_every"`
	ResumeSeq uint64 `json:"resume_seq"`
	// Trace grants the client's Hello.Trace request. Absent (false) from
	// pre-trace servers, so a new client talking to an old server simply
	// never sends traced frames.
	Trace bool `json:"trace,omitempty"`
}

// Report is the server's end-of-session payload: the merged pipeline
// result in the same shape race.Run consumes in-process, so a remote run
// fills the unified race.Report identically to a local one.
type Report struct {
	Races  []ReportRace `json:"races"`
	Stats  ReportStats  `json:"stats"`
	Events uint64       `json:"events"`
	// LastSeq is the highest batch sequence the server applied before
	// producing this report. A cluster coordinator uses it as the
	// per-member drain watermark when it merges reports; merged reports
	// carry the sum (total batch frames across members). Absent (0) from
	// pre-cluster servers.
	LastSeq uint64 `json:"last_seq,omitempty"`
}

// ReportRace mirrors detector.Race field-for-field with stable JSON names,
// so the wire schema does not silently drift when the detector grows.
type ReportRace struct {
	Kind    uint8  `json:"kind"`
	Addr    uint64 `json:"addr"`
	Size    uint32 `json:"size"`
	Tid     int32  `json:"tid"`
	PC      uint32 `json:"pc"`
	PrevTid int32  `json:"prev_tid"`
	PrevPC  uint32 `json:"prev_pc"`
	// Prov is the race's provenance record, present only for sessions that
	// negotiated Hello.Provenance. It rides value copies (MergeReports,
	// SortRaces, migration filtering) untouched — the identity fields above
	// alone define race ordering and equality.
	Prov *detector.Provenance `json:"prov,omitempty"`
}

// ReportStats carries the detector statistics a remote client needs to
// fill race.Report.Detector (the Table 2/3/4 columns).
type ReportStats struct {
	Accesses           uint64  `json:"accesses"`
	SameEpoch          uint64  `json:"same_epoch"`
	NonShared          uint64  `json:"non_shared"`
	HashPeakBytes      int64   `json:"hash_peak_bytes"`
	VCPeakBytes        int64   `json:"vc_peak_bytes"`
	BitmapPeakBytes    int64   `json:"bitmap_peak_bytes"`
	TotalPeakBytes     int64   `json:"total_peak_bytes"`
	Races              uint64  `json:"races"`
	Suppressed         uint64  `json:"suppressed"`
	SharingComparisons uint64  `json:"sharing_comparisons"`
	NodesPeak          int64   `json:"nodes_peak"`
	AvgSharing         float64 `json:"avg_sharing"`
	NodeAllocs         uint64  `json:"node_allocs"`
	LocCreations       uint64  `json:"loc_creations"`
	Merges             uint64  `json:"merges"`
	Splits             uint64  `json:"splits"`
	// ShedRecords counts access records the server dropped under queue
	// pressure before they reached its pipeline (load shedding; sync is
	// never shed). Absent means the server has no shedding — old servers
	// interoperate.
	ShedRecords uint64 `json:"shed_records,omitempty"`
	// Elided counts accesses the client's front-line filter dropped as
	// exact same-epoch repeats before they ever reached the wire; it is
	// filled in client-side (the server never sees elided events), and
	// rides ReportStats so merged and persisted reports keep coverage
	// reconciliation exact: observed accesses = Accesses + Elided. Absent
	// means no elision — old peers interoperate.
	Elided uint64 `json:"elided,omitempty"`
}

// ErrorPayload is the body of a TypeError frame. Code is a stable,
// machine-matchable identifier; Message is for humans.
type ErrorPayload struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes sent by the server.
const (
	CodeBadVersion   = "bad-version"
	CodeBadOptions   = "bad-options"
	CodeSessionLimit = "session-limit"
	CodeNoSession    = "no-session"
	CodeProtocol     = "protocol"
	CodeDraining     = "draining"
	// CodeBusy rejects a resume that raced the old connection's teardown:
	// the session is still attached, but will detach as soon as the server
	// notices the dead connection (which the rejection accelerates by
	// closing it). Retryable.
	CodeBusy = "busy"
)

// MarshalControl encodes a control payload as JSON.
func MarshalControl(v any) ([]byte, error) { return json.Marshal(v) }

// UnmarshalControl decodes a control payload, rejecting unknown shapes
// loosely (unknown fields are ignored for forward compatibility).
func UnmarshalControl(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("wire: bad control payload: %w", err)
	}
	return nil
}

// AppendControlFrame marshals v and appends it as a frame of type h.Type.
func AppendControlFrame(dst []byte, h Header, v any) ([]byte, error) {
	payload, err := MarshalControl(v)
	if err != nil {
		return dst, err
	}
	return AppendFrame(dst, h, payload), nil
}
