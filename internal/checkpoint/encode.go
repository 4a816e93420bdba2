// Binary encoding helpers for checkpoint payloads.
//
// Checkpoint payloads are hand-rolled little-endian records rather than
// gob/JSON: the hot capture path must not allocate proportionally to the
// network (Enc appends into a reusable buffer), and the restore path must
// fail loudly on any truncation instead of silently zero-filling. Every
// variable-length field is length-prefixed, and Dec accumulates a sticky
// error so decoders read straight through a record and check once.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Enc appends fixed-width little-endian fields to a byte buffer. The zero
// value is ready to use; Reset lets a caller reuse the backing array
// across periodic captures.
type Enc struct {
	buf []byte
}

// Reset empties the buffer, keeping its capacity.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded record. The slice aliases the encoder's
// buffer and is valid until the next Reset.
func (e *Enc) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends an int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// I32 appends an int32.
func (e *Enc) I32(v int32) { e.U32(uint32(v)) }

// F64 appends a float64 by bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte slice.
func (e *Enc) BytesField(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// U64s appends a length-prefixed []uint64.
func (e *Enc) U64s(v []uint64) {
	e.U64(uint64(len(v)))
	for _, w := range v {
		e.U64(w)
	}
}

// I64s appends a length-prefixed []int64.
func (e *Enc) I64s(v []int64) {
	e.U64(uint64(len(v)))
	for _, w := range v {
		e.I64(w)
	}
}

// I32s appends a length-prefixed []int32.
func (e *Enc) I32s(v []int32) {
	e.U64(uint64(len(v)))
	for _, w := range v {
		e.I32(w)
	}
}

// Dec reads fields appended by Enc. It carries a sticky error: after any
// short read every subsequent accessor returns the zero value, and Err
// reports the first failure.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Err returns the first decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Done returns Err, or an error if trailing bytes remain — a decoded
// record must consume its payload exactly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("checkpoint: %d trailing bytes after record", len(d.buf)-d.off)
	}
	return nil
}

// take reserves n bytes, setting the sticky error on underflow.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.err = fmt.Errorf("checkpoint: truncated record (want %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool; any byte other than 0 or 1 is a decode error, so a
// record that decodes re-encodes to the same bytes.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	}
	d.err = fmt.Errorf("checkpoint: invalid bool at offset %d", d.off-1)
	return false
}

// U32 reads a uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// I32 reads an int32.
func (d *Dec) I32() int32 { return int32(d.U32()) }

// F64 reads a float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// length reads a length prefix for elem-byte elements, bounding it by the
// remaining bytes so a corrupted prefix cannot force a giant allocation.
func (d *Dec) length(elem int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if elem < 1 {
		elem = 1
	}
	if n > uint64(len(d.buf)-d.off)/uint64(elem) {
		d.err = fmt.Errorf("checkpoint: implausible length %d at offset %d of %d", n, d.off, len(d.buf))
		return 0
	}
	return int(n)
}

// Len reads a length prefix for elem-byte elements with the same
// plausibility bound as the package's own slice readers; decoders of
// composite records use it before element loops.
func (d *Dec) Len(elem int) int { return d.length(elem) }

// BytesField reads a length-prefixed byte slice (copied out of the buffer).
func (d *Dec) BytesField() []byte {
	n := d.length(1)
	b := d.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.BytesField()) }

// U64s reads a length-prefixed []uint64.
func (d *Dec) U64s() []uint64 {
	n := d.length(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// I64s reads a length-prefixed []int64.
func (d *Dec) I64s() []int64 {
	n := d.length(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.I64()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// I32s reads a length-prefixed []int32.
func (d *Dec) I32s() []int32 {
	n := d.length(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = d.I32()
	}
	if d.err != nil {
		return nil
	}
	return out
}
