// Package diag is the flight recorder: an always-armed postmortem
// capture path that, on trigger (invariant violation, SIGQUIT, WAL
// recovery anomaly, armed crash point), snapshots everything the
// in-memory rings know — event journal, time series, trace ring, the
// full stats document, durability block, goroutine and heap profiles,
// build identity — into one self-contained bundle file before the
// context ages out of the bounded rings or dies with the process.
//
// A bundle is a versioned, CRC-framed file in the wire protocol's frame
// (wire.AppendFrame, wire.ReadFrame): an 8-byte magic, then one frame
// per named section,
//
//	[4B payload len][4B CRC-32 (IEEE) of payload][payload]
//	payload = uvarint(len(name)) + name + data
//
// little-endian, terminated by an empty section named "end". Sections
// are written straight to the final file in one pass — no tmp/rename —
// so a crash mid-dump leaves a prefix-exact readable bundle: the
// reader replays sections until the first torn or corrupt frame,
// counts the tail as torn bytes, and reports Complete only when it saw
// the end marker. That is the same torn-tail contract the WAL gives
// replay, and the same crash-test harness proves it (crash point
// diag.section.partial).
package diag

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/faultinject"
	"repro/internal/wire"
)

// Magic opens every bundle file; the trailing byte versions the
// container format (sections version themselves via the meta schema).
var Magic = [8]byte{'B', 'B', 'D', 'I', 'A', 'G', '1', '\n'}

// MaxSection bounds one section's frame payload: the wire frame
// bound, so a torn length prefix cannot drive a huge allocation.
const MaxSection = wire.MaxFrame

// EndSection is the empty terminator section; its presence is what
// distinguishes a complete bundle from a truncated one.
const EndSection = "end"

// ErrNotBundle reports a file that does not start with Magic.
var ErrNotBundle = errors.New("diag: not a bundle file (bad magic)")

// Section is one named blob inside a bundle.
type Section struct {
	Name string
	Data []byte
}

// A Writer streams sections into a bundle file. Each section is one
// frame and one file write, so every prefix of the file up to the last
// complete frame is readable no matter where a crash lands.
type Writer struct {
	f   *os.File
	err error
}

// Create opens path (which must not exist) and writes the magic.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(Magic[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &Writer{f: f}, nil
}

// WriteSection appends one named section frame. The first error is
// sticky. Crash point diag.section.partial fires here: its prelude
// flushes half the frame to disk so the torn tail is genuinely
// durable, exactly like wal.append.partial.
func (w *Writer) WriteSection(name string, data []byte) error {
	if w.err != nil {
		return w.err
	}
	payload := make([]byte, 0, len(name)+len(data)+4)
	payload = binary.AppendUvarint(payload, uint64(len(name)))
	payload = append(payload, name...)
	payload = append(payload, data...)
	if len(payload) > MaxSection {
		w.err = fmt.Errorf("diag: section %q exceeds %d bytes", name, MaxSection)
		return w.err
	}
	frame := wire.AppendFrame(make([]byte, 0, len(payload)+8), payload)
	if err := faultinject.HitWith("diag.section.partial", func() {
		w.f.Write(frame[:len(frame)/2])
		w.f.Sync()
	}); err != nil {
		w.err = err
		return err
	}
	if _, err := w.f.Write(frame); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Close writes the end marker, fsyncs, and closes the file. A sticky
// write error skips the marker (the bundle stays readable but reports
// incomplete) and is returned.
func (w *Writer) Close() error {
	if w.err == nil {
		w.WriteSection(EndSection, nil)
	}
	if err := w.f.Sync(); err != nil && w.err == nil {
		w.err = err
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}

// Bundle is one decoded bundle file.
type Bundle struct {
	Path string
	// Sections in file order, end marker excluded.
	Sections []Section
	// Complete reports the end marker was present — the dump finished.
	Complete bool
	// TornBytes counts the unreadable tail after the last complete
	// frame (0 for a clean file).
	TornBytes int64
}

// Section returns the named section's data, or nil when absent.
func (b *Bundle) Section(name string) []byte {
	for _, s := range b.Sections {
		if s.Name == name {
			return s.Data
		}
	}
	return nil
}

// ReadBundle decodes a bundle file with the WAL's torn-tail contract:
// sections are replayed until the first torn or corrupt frame, which
// ends the read (counted in TornBytes) rather than failing it. Only a
// missing or wrong magic is an error — that file was never a bundle.
func ReadBundle(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 256<<10)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != Magic {
		return nil, ErrNotBundle
	}
	b := &Bundle{Path: path}
	read := int64(len(Magic))
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			if err != io.EOF {
				b.TornBytes = st.Size() - read
			}
			return b, nil
		}
		read += 8 + int64(len(payload))
		nameLen, k := binary.Uvarint(payload)
		if k <= 0 || nameLen > uint64(len(payload)-k) {
			b.TornBytes = st.Size() - read
			return b, nil
		}
		name := string(payload[k : k+int(nameLen)])
		if name == EndSection {
			b.Complete = true
			return b, nil
		}
		b.Sections = append(b.Sections, Section{Name: name, Data: payload[k+int(nameLen):]})
	}
}
