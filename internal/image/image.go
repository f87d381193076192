// Package image defines program image files — what the network file
// server stores and the program manager loads into a fresh address space —
// and the environment block the program manager writes into page 0 of a
// new program space (arguments, default I/O, global-server name cache;
// §2.1).
package image

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"vsystem/internal/vid"
)

// Image is a loadable program.
type Image struct {
	// Name is the program's file name ("cc68", "tex").
	Name string
	// Kind selects the body implementation ("vvm" or a workload kind).
	Kind string
	// Code is loaded at the load base (vvm.CodeBase for VVM programs).
	// For workload bodies it carries the workload's parameter blob.
	Code []byte
	// Data is initialized data, loaded immediately after Code.
	Data []byte
	// SpaceSize is the address-space size the program needs.
	SpaceSize uint32
	// Pad grows the stored file (and thus load time) without changing
	// behaviour; used to model realistically sized binaries.
	Pad uint32
}

// Stored form (DESIGN §10): a magic word, SpaceSize, Pad, the code and
// data lengths, the name and the kind behind 16-bit lengths, the code and
// data bytes — the header — and then exactly Pad bytes of padding.
const (
	magic    = 0x474D4956 // "VIMG"
	fixedLen = 5*4 + 2 + 2
)

// headerLen is the stored size without the padding.
func (im *Image) headerLen() int {
	return fixedLen + len(im.Name) + len(im.Kind) + len(im.Code) + len(im.Data)
}

// Size returns the stored file size in bytes: len(Encode()), by arithmetic.
func (im *Image) Size() int { return im.headerLen() + int(im.Pad) }

// Encode serializes the image for storage on the file server.
func (im *Image) Encode() []byte {
	a := vid.Appender{B: make([]byte, 0, im.Size())}
	a.U32(magic)
	a.U32(im.SpaceSize)
	a.U32(im.Pad)
	a.U32(uint32(len(im.Code)))
	a.U32(uint32(len(im.Data)))
	a.String(im.Name)
	a.String(im.Kind)
	a.B = append(a.B, im.Code...)
	a.B = append(a.B, im.Data...)
	return a.B[:im.Size()] // the padding: zeroes, already there
}

// Decode parses a stored image held whole in b. The file must be exactly
// its header plus the padding the header declares: a truncated file, a file
// with anything appended, or one that does not start with the magic word is
// an error.
func Decode(b []byte) (*Image, error) { return DecodeHeader(b, len(b)) }

// DecodeHeader parses a stored image of size bytes from its leading bytes b:
// the header, which is all of the file that says anything, and as much of
// the padding behind it as the caller kept (Decode keeps all of it; the
// program manager, none). The refusals are the same whatever was kept.
func DecodeHeader(b []byte, size int) (*Image, error) {
	r := vid.NewReader(b)
	if r.U32() != magic {
		return nil, fmt.Errorf("image: decode: not an image file")
	}
	im := &Image{SpaceSize: r.U32(), Pad: r.U32()}
	codeLen, dataLen := r.U32(), r.U32()
	im.Name, im.Kind = r.String(), r.String()
	// Widened, never summed in 32 bits: a huge length word cannot wrap.
	after := int64(size) - int64(len(b)-r.Len())
	if r.Err() == nil && (len(b) > size || int64(codeLen)+int64(dataLen)+int64(im.Pad) != after) {
		return nil, fmt.Errorf("image: decode: %d bytes after the names, header declares %d code + %d data + %d pad",
			after, codeLen, dataLen, im.Pad)
	}
	im.Code = append([]byte(nil), r.Take(int(codeLen))...)
	im.Data = append([]byte(nil), r.Take(int(dataLen))...)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("image: decode: %w", err)
	}
	return im, nil
}

// HeaderLen reports how many leading bytes of a stored image DecodeHeader
// needs — everything before the padding — going by the file's first bytes
// b. If b ends before the names do, it says all of them: whoever loads the
// file then keeps it whole and the decoder sees what Decode would have.
func HeaderLen(b []byte) uint64 {
	r := vid.NewReader(b)
	r.Take(3 * 4) // magic, SpaceSize, Pad
	codeLen, dataLen := r.U32(), r.U32()
	r.Take(int(r.U16())) // the name
	r.Take(int(r.U16())) // the kind
	if r.Err() != nil {
		return math.MaxUint64
	}
	return uint64(len(b)-r.Len()) + uint64(codeLen) + uint64(dataLen)
}

// EnvBlock is the execution environment the program manager initializes a
// program with (§2.1: arguments, default I/O, environment variables,
// "including a name cache for commonly used global names"). The binary
// layout (word offsets in page 0) is shared with the VVM:
//
//	0x00 magic
//	0x04 stdout server PID (display server of the user's home workstation)
//	0x08 file server PID
//	0x0C argc
//	0x10 offset of NUL-separated argv bytes
//	0x14 heap base (first free address after code+data)
//	0x18 name-cache entry count
//	0x1C name-cache offset (entries: PID word, then NUL-terminated name)
//
// Because the cache lives in the program's address space it migrates with
// the program — the §6 discipline that avoids residual lookup state on the
// previous host.
type EnvBlock struct {
	Stdout     vid.PID
	FileServer vid.PID
	Args       []string
	HeapBase   uint32
	NameCache  map[string]vid.PID
}

// EnvMagic identifies an initialized environment block.
const EnvMagic = 0x56454E56

// Encode lays the environment block out in its binary page-0 format.
func (e *EnvBlock) Encode() []byte {
	var argv bytes.Buffer
	for _, a := range e.Args {
		argv.WriteString(a)
		argv.WriteByte(0)
	}
	var cache bytes.Buffer
	names := make([]string, 0, len(e.NameCache))
	for n := range e.NameCache {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], uint32(e.NameCache[n]))
		cache.Write(w[:])
		cache.WriteString(n)
		cache.WriteByte(0)
	}
	const hdr = 0x20
	out := make([]byte, hdr+argv.Len()+cache.Len())
	put := func(off int, v uint32) { binary.LittleEndian.PutUint32(out[off:], v) }
	put(0x00, EnvMagic)
	put(0x04, uint32(e.Stdout))
	put(0x08, uint32(e.FileServer))
	put(0x0C, uint32(len(e.Args)))
	put(0x10, hdr)
	put(0x14, e.HeapBase)
	put(0x18, uint32(len(names)))
	put(0x1C, uint32(hdr+argv.Len()))
	copy(out[hdr:], argv.Bytes())
	copy(out[hdr+argv.Len():], cache.Bytes())
	return out
}

// DecodeEnv parses an environment block (for tools and tests).
func DecodeEnv(b []byte) (*EnvBlock, error) {
	if len(b) < 0x20 {
		return nil, fmt.Errorf("image: short env block")
	}
	get := func(off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }
	if get(0) != EnvMagic {
		return nil, fmt.Errorf("image: bad env magic")
	}
	e := &EnvBlock{
		Stdout:     vid.PID(get(0x04)),
		FileServer: vid.PID(get(0x08)),
		HeapBase:   get(0x14),
	}
	argc := int(get(0x0C))
	off := int(get(0x10))
	for i := 0; i < argc && off < len(b); i++ {
		end := bytes.IndexByte(b[off:], 0)
		if end < 0 {
			break
		}
		e.Args = append(e.Args, string(b[off:off+end]))
		off += end + 1
	}
	if n := int(get(0x18)); n > 0 {
		e.NameCache = make(map[string]vid.PID, n)
		off := int(get(0x1C))
		for i := 0; i < n && off+4 < len(b); i++ {
			pid := vid.PID(binary.LittleEndian.Uint32(b[off:]))
			off += 4
			end := bytes.IndexByte(b[off:], 0)
			if end < 0 {
				break
			}
			e.NameCache[string(b[off:off+end])] = pid
			off += end + 1
		}
	}
	return e, nil
}
