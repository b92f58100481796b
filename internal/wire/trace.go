// Distributed-trace carriage for Batch frames. A traced batch sets
// FlagTraced in the frame header and prefixes its payload with a fixed
// 16-byte span context (trace id, span id — both little-endian uint64)
// ahead of the columnar-encoded records. Absence means untraced: a
// pre-trace server never inspects the flags byte it documents as
// "reserved, must be 0", so traced clients only emit the prefix after the
// server granted tracing in HelloAck.Trace; a pre-trace client never sets
// the flag and its batches decode exactly as before. Keeping the span context out of the header proper means the
// 32-byte header layout — and every untraced byte stream — is unchanged.
package wire

import (
	"encoding/binary"
	"fmt"
)

// FlagTraced marks a Batch frame whose payload opens with a TracePrefixSize
// span context. Only meaningful on TypeBatch frames of sessions that
// negotiated Hello.Trace/HelloAck.Trace.
const FlagTraced = 0x1

// TracePrefixSize is the traced-batch payload prefix: trace id (8 bytes LE)
// then span id (8 bytes LE).
const TracePrefixSize = 16

// SplitTracePrefix separates a Batch payload into its span context and the
// columnar-encoded records. Untraced frames (flag clear) pass through with a
// zero context.
func SplitTracePrefix(h Header, payload []byte) (trace, span uint64, recs []byte, err error) {
	if h.Flags&FlagTraced == 0 {
		return 0, 0, payload, nil
	}
	if len(payload) < TracePrefixSize {
		return 0, 0, nil, fmt.Errorf("wire: traced batch payload %d bytes, need %d-byte span context", len(payload), TracePrefixSize)
	}
	trace = binary.LittleEndian.Uint64(payload)
	span = binary.LittleEndian.Uint64(payload[8:])
	return trace, span, payload[TracePrefixSize:], nil
}
