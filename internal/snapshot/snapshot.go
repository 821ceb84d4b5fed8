// Package snapshot is the versioned, CRC32-framed, content-addressed
// encoding of in-progress simulator state: the checkpoint/restore layer
// that makes long runs killable and resumable with byte-exact results.
//
// The package has two levels. The Archive is the generic container — a
// named-section framing with a format version, an integrity CRC over
// the whole body, and a SHA-256 content address, mirroring the
// store's entry framing but for multi-part state. The Checkpoint is
// the experiment-suite payload carried in an Archive: the completed
// prefix of a run (rendered outputs, sim-cycle/event totals, the merged
// PMU counter snapshot) plus the representative-region signature
// scaffold (docs/SAMPLING.md). Checkpoints are taken only at
// experiment boundaries, where no kernel is live, so no kernel state
// needs a record of its own.
//
// Every encoding here is deterministic: equal state always encodes to
// equal bytes, so the content address is a sound identity (the same
// property experiments.Spec.Key gives specs). Checkpoints are persisted
// through the internal/store entry framing — atomic temp-plus-rename
// writes, corrupt-detect-delete reads — so a torn checkpoint can never
// be resumed from (see WriteFile/ReadFile).
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// Version is the archive format generation. Bump it whenever the
// framing or any section's meaning changes, so stale checkpoints read
// as unreadable (and are discarded) instead of misparsing.
const Version = 1

// archiveMagic is the first line of every encoded archive.
const archiveMagic = "spp-snapshot-v1"

// Section is one named byte payload inside an Archive.
type Section struct {
	// Name identifies the payload (lowercase, no spaces).
	Name string
	// Data is the raw payload bytes.
	Data []byte
}

// Archive is an ordered set of named sections with a version header,
// a CRC32 integrity frame, and a SHA-256 content address. Build one
// with New+Add, serialize with Encode, and reload with Decode.
type Archive struct {
	sections []Section
}

// New returns an empty archive.
func New() *Archive { return &Archive{} }

// validSectionName accepts short lowercase identifiers (letters,
// digits, '.', '-', '_'); anything else would collide with the framing.
func validSectionName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, c := range name {
		ok := (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '_'
		if !ok {
			return false
		}
	}
	return true
}

// Add appends a section. Names must be valid and unique within the
// archive — the encoding is order-preserving, so callers fix the
// section order and with it the content address.
func (a *Archive) Add(name string, data []byte) error {
	if !validSectionName(name) {
		return fmt.Errorf("snapshot: invalid section name %q", name)
	}
	for _, s := range a.sections {
		if s.Name == name {
			return fmt.Errorf("snapshot: duplicate section %q", name)
		}
	}
	a.sections = append(a.sections, Section{Name: name, Data: append([]byte(nil), data...)})
	return nil
}

// Section returns the named payload and whether it exists.
func (a *Archive) Section(name string) ([]byte, bool) {
	for _, s := range a.sections {
		if s.Name == name {
			return s.Data, true
		}
	}
	return nil, false
}

// Sections reports the section count.
func (a *Archive) Sections() int { return len(a.sections) }

// Encode renders the archive:
//
//	spp-snapshot-v1
//	section <name> <len>
//	<len payload bytes>
//	...
//	end <count> <crc32-hex>
//
// The CRC covers every byte above the end line, so any torn or
// bit-flipped section fails Decode. Deterministic: equal sections in
// equal order encode to equal bytes.
func (a *Archive) Encode() []byte {
	var b bytes.Buffer
	b.WriteString(archiveMagic)
	b.WriteByte('\n')
	for _, s := range a.sections {
		fmt.Fprintf(&b, "section %s %d\n", s.Name, len(s.Data))
		b.Write(s.Data)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "end %d %08x\n", len(a.sections), crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

// ID is the archive's content address: the hex SHA-256 of its encoded
// bytes. Equal state ⇒ equal bytes ⇒ equal ID, so checkpoints can be
// stored and deduplicated content-addressed exactly like results.
func (a *Archive) ID() string {
	sum := sha256.Sum256(a.Encode())
	return hex.EncodeToString(sum[:])
}

// Decode validates an encoded archive — magic line, section framing,
// declared lengths, section count, CRC32 — and reconstructs it. Any
// violation is an error; partially valid archives are never returned.
func Decode(data []byte) (*Archive, error) {
	rest := data
	line, rest, err := cutLine(rest)
	if err != nil || line != archiveMagic {
		return nil, fmt.Errorf("snapshot: bad archive header (want %q)", archiveMagic)
	}
	a := New()
	for {
		var head string
		head, rest, err = cutLine(rest)
		if err != nil {
			return nil, fmt.Errorf("snapshot: truncated archive")
		}
		if strings.HasPrefix(head, "end ") {
			fields := strings.Fields(head)
			if len(fields) != 3 {
				return nil, fmt.Errorf("snapshot: malformed end line %q", head)
			}
			count, cerr := strconv.Atoi(fields[1])
			if cerr != nil || count != len(a.sections) {
				return nil, fmt.Errorf("snapshot: section count mismatch (header %s, found %d)", fields[1], len(a.sections))
			}
			want, cerr := strconv.ParseUint(fields[2], 16, 32)
			if cerr != nil {
				return nil, fmt.Errorf("snapshot: malformed CRC %q", fields[2])
			}
			body := data[:len(data)-len(rest)-len(head)-1]
			if crc32.ChecksumIEEE(body) != uint32(want) {
				return nil, fmt.Errorf("snapshot: CRC mismatch: archive is torn or corrupted")
			}
			if len(bytes.TrimSpace(rest)) != 0 {
				return nil, fmt.Errorf("snapshot: trailing bytes after end line")
			}
			return a, nil
		}
		name, ok := strings.CutPrefix(head, "section ")
		if !ok {
			return nil, fmt.Errorf("snapshot: malformed section line %q", head)
		}
		nm, lenStr, ok := strings.Cut(name, " ")
		if !ok {
			return nil, fmt.Errorf("snapshot: malformed section line %q", head)
		}
		n, cerr := strconv.Atoi(lenStr)
		if cerr != nil || n < 0 || n+1 > len(rest) {
			return nil, fmt.Errorf("snapshot: section %q declares %s bytes but the archive is shorter", nm, lenStr)
		}
		payload := rest[:n]
		if rest[n] != '\n' {
			return nil, fmt.Errorf("snapshot: section %q payload not newline-terminated at its declared length", nm)
		}
		rest = rest[n+1:]
		if err := a.Add(nm, payload); err != nil {
			return nil, err
		}
	}
}

// cutLine splits data at the first newline, returning the line without
// it and the remainder.
func cutLine(data []byte) (string, []byte, error) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return "", nil, fmt.Errorf("snapshot: missing newline")
	}
	return string(data[:i]), data[i+1:], nil
}
