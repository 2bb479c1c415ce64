package audio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// WAV I/O: 16-bit mono PCM, the least common denominator every tool reads.
// Used by the example binaries and the corpus exporter so that generated
// clips can be inspected with standard audio tooling.

var (
	// ErrBadWAV reports a malformed or unsupported WAV stream.
	ErrBadWAV = errors.New("audio: malformed or unsupported WAV")
)

// WriteWAV encodes the buffer as a 16-bit mono PCM WAV file.
func WriteWAV(w io.Writer, b *Buffer) error {
	n := len(b.Samples)
	dataSize := uint32(n * 2)
	var hdr [44]byte
	copy(hdr[0:4], "RIFF")
	binary.LittleEndian.PutUint32(hdr[4:8], 36+dataSize)
	copy(hdr[8:12], "WAVE")
	copy(hdr[12:16], "fmt ")
	binary.LittleEndian.PutUint32(hdr[16:20], 16)
	binary.LittleEndian.PutUint16(hdr[20:22], 1) // PCM
	binary.LittleEndian.PutUint16(hdr[22:24], 1) // mono
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(b.Rate))
	binary.LittleEndian.PutUint32(hdr[28:32], uint32(b.Rate*2))
	binary.LittleEndian.PutUint16(hdr[32:34], 2)
	binary.LittleEndian.PutUint16(hdr[34:36], 16)
	copy(hdr[36:40], "data")
	binary.LittleEndian.PutUint32(hdr[40:44], dataSize)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("audio: writing WAV header: %w", err)
	}
	buf := make([]byte, 2*n)
	for i, v := range b.Samples {
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(FloatToInt16(v)))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("audio: writing WAV data: %w", err)
	}
	return nil
}

// ReadWAV decodes a 16-bit mono PCM WAV stream.
func ReadWAV(r io.Reader) (*Buffer, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("audio: reading RIFF header: %w", err)
	}
	if string(hdr[0:4]) != "RIFF" || string(hdr[8:12]) != "WAVE" {
		return nil, ErrBadWAV
	}
	var rate int
	var bits, channels int
	for {
		var chunk [8]byte
		if _, err := io.ReadFull(r, chunk[:]); err != nil {
			return nil, fmt.Errorf("audio: reading chunk header: %w", err)
		}
		id := string(chunk[0:4])
		size := binary.LittleEndian.Uint32(chunk[4:8])
		switch id {
		case "fmt ":
			body := make([]byte, size)
			if _, err := io.ReadFull(r, body); err != nil {
				return nil, fmt.Errorf("audio: reading fmt chunk: %w", err)
			}
			if len(body) < 16 {
				return nil, ErrBadWAV
			}
			format := binary.LittleEndian.Uint16(body[0:2])
			channels = int(binary.LittleEndian.Uint16(body[2:4]))
			rate = int(binary.LittleEndian.Uint32(body[4:8]))
			bits = int(binary.LittleEndian.Uint16(body[14:16]))
			if format != 1 || channels != 1 || bits != 16 {
				return nil, fmt.Errorf("%w: need 16-bit mono PCM, got format=%d channels=%d bits=%d",
					ErrBadWAV, format, channels, bits)
			}
		case "data":
			if rate == 0 {
				return nil, fmt.Errorf("%w: data before fmt", ErrBadWAV)
			}
			body := make([]byte, size)
			if _, err := io.ReadFull(r, body); err != nil {
				return nil, fmt.Errorf("audio: reading data chunk: %w", err)
			}
			n := int(size) / 2
			out := NewBuffer(rate, n)
			for i := 0; i < n; i++ {
				out.Samples[i] = Int16ToFloat(int16(binary.LittleEndian.Uint16(body[2*i:])))
			}
			return out, nil
		default:
			// Skip unknown chunks (LIST, fact, ...).
			if _, err := io.CopyN(io.Discard, r, int64(size)); err != nil {
				return nil, fmt.Errorf("audio: skipping %q chunk: %w", id, err)
			}
		}
	}
}

// FloatToInt16 converts a [-1, 1] sample to int16 with clamping. The scale
// is symmetric with Int16ToFloat (32768) so round trips are exact to within
// half an LSB everywhere except at positive full scale, which clamps.
//
// It rounds half away from zero, like math.Round, without a branch: it
// clamps first, then adds the largest double below ½ with the sample's
// sign and truncates. That constant, not ½, keeps 0.49999999999999994
// rounding down; at every half-integer the sum rounds up to the next
// integer, so the result is bit-identical to rounding then clamping.
func FloatToInt16(v float64) int16 {
	s := min(max(v*32768, -32768), 32767)
	return int16(int64(s + math.Copysign(0.49999999999999994, s)))
}

// Int16ToFloat converts an int16 sample to [-1, 1).
func Int16ToFloat(v int16) float64 { return float64(v) / 32768 }
