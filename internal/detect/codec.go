package detect

import (
	"encoding/binary"
	"errors"
)

// Outcome's binary form is the persistent cache's region-group payload.
// Every warm detection decodes one per region group, so it is compact and
// cheap to read: every distinct string is stored once, in a table ordered by first
// appearance, and referenced by index; integers are varints.
//
//	uvarint n | n × uvarint len | the n strings' bytes, concatenated
//	uvarint len(Bugs)  | per bug:  13 × str (Key, SpecID, BugRec's strings),
//	                               varint Ord, flags byte
//	uvarint len(Units) | per unit: str ID, varint Specs, varint Bugs
//	varint Solver.Checks
//
// A str is a uvarint: 0 for "", i for the table's i-th string. Flags bit 0
// is Rec.TraceTruncated, bit 1 Rec.Trace2Truncated. The encoding is
// deterministic, and it holds exactly Findings: Stats and the solver memo
// split are not encoded. Only full-fidelity outcomes have a binary form,
// because only those are ever cached: Failures and Degraded are not
// encoded.

var errOutcomeCodec = errors.New("detect: malformed binary outcome")

// minBugBytes and minUnitBytes are the smallest encodings of one bug and
// one unit (one byte per field); decoded counts are checked against them so
// no input allocates more than a fixed multiple of its own length.
const (
	minBugBytes  = 15
	minUnitBytes = 3
)

// strs lists the bug's string fields in encoding order.
func (b *ShardBug) strs() [13]*string {
	r := &b.Rec
	return [...]*string{&b.Key, &b.SpecID, &r.Kind, &r.Fn, &r.File, &r.Message,
		&r.SpecConstraint, &r.SpecCond, &r.SpecScope, &r.SpecOriginPatch, &r.SpecOrigin,
		&r.Trace, &r.Trace2}
}

// MarshalBinary encodes a full-fidelity outcome; one with Failures or
// Degraded records is refused.
func (o *Outcome) MarshalBinary() ([]byte, error) {
	if len(o.Failures) > 0 || len(o.Degraded) > 0 {
		return nil, errors.New("detect: an outcome with failures or degraded units has no binary form")
	}
	e := encoder{ids: make(map[string]uint64)}
	e.body = binary.AppendUvarint(e.body, uint64(len(o.Bugs)))
	for i := range o.Bugs {
		b := &o.Bugs[i]
		for _, s := range b.strs() {
			e.str(*s)
		}
		e.body = binary.AppendVarint(e.body, int64(b.Ord))
		var flags byte
		if b.Rec.TraceTruncated {
			flags |= 1
		}
		if b.Rec.Trace2Truncated {
			flags |= 2
		}
		e.body = append(e.body, flags)
	}
	e.body = binary.AppendUvarint(e.body, uint64(len(o.Units)))
	for _, u := range o.Units {
		e.str(u.ID)
		e.body = binary.AppendVarint(e.body, int64(u.Specs))
		e.body = binary.AppendVarint(e.body, int64(u.Bugs))
	}
	e.body = binary.AppendVarint(e.body, o.Solver.Checks)

	size := binary.MaxVarintLen64*(len(e.strs)+1) + len(e.body)
	for _, s := range e.strs {
		size += len(s)
	}
	out := binary.AppendUvarint(make([]byte, 0, size), uint64(len(e.strs)))
	for _, s := range e.strs {
		out = binary.AppendUvarint(out, uint64(len(s)))
	}
	for _, s := range e.strs {
		out = append(out, s...)
	}
	return append(out, e.body...), nil
}

type encoder struct {
	body []byte
	ids  map[string]uint64 // string -> table index, from 1
	strs []string          // the table, in first-appearance order
}

func (e *encoder) str(s string) {
	id := uint64(0)
	if s != "" {
		var ok bool
		if id, ok = e.ids[s]; !ok {
			e.strs = append(e.strs, s)
			id = uint64(len(e.strs))
			e.ids[s] = id
		}
	}
	e.body = binary.AppendUvarint(e.body, id)
}

// UnmarshalBinary decodes MarshalBinary's output into o, replacing its
// contents. Every count, length and index is checked against the input,
// and trailing bytes are an error.
func (o *Outcome) UnmarshalBinary(data []byte) error {
	d := decoder{buf: data}
	d.table()
	var out Outcome
	if n := d.count(minBugBytes); n > 0 {
		out.Bugs = make([]ShardBug, n)
		for i := range out.Bugs {
			b := &out.Bugs[i]
			for _, s := range b.strs() {
				*s = d.str()
			}
			b.Ord = d.int()
			flags := d.byte()
			if flags&^3 != 0 {
				d.fail()
			}
			b.Rec.TraceTruncated = flags&1 != 0
			b.Rec.Trace2Truncated = flags&2 != 0
		}
	}
	if n := d.count(minUnitBytes); n > 0 {
		out.Units = make([]UnitRec, n)
		for i := range out.Units {
			u := &out.Units[i]
			u.ID = d.str()
			u.Specs = d.int()
			u.Bugs = d.int()
		}
	}
	out.Solver.Checks = d.varint()
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return errOutcomeCodec
	}
	*o = out
	return nil
}

// decoder reads from buf, which shrinks as it goes. The first malformed
// field sets err; every later read then returns a zero value.
type decoder struct {
	buf  []byte
	strs []string
	err  error
}

func (d *decoder) fail() {
	d.err, d.buf = errOutcomeCodec, nil
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *decoder) byte() byte {
	if len(d.buf) == 0 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// count reads an element count, each element taking at least min bytes of
// the remaining input.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.buf)/min) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	i := d.uvarint()
	if i == 0 {
		return ""
	}
	if i > uint64(len(d.strs)) {
		d.fail()
		return ""
	}
	return d.strs[i-1]
}

// table reads the string table: all of its bytes become one string, and
// each entry is a substring of it.
func (d *decoder) table() {
	n := d.count(1)
	lens := d.buf
	total := 0
	for i := 0; i < n; i++ {
		// The remaining input only shrinks, so the last check bounds them all.
		l := d.uvarint()
		if d.err != nil || l > uint64(len(d.buf)) || total+int(l) > len(d.buf) {
			d.fail()
			return
		}
		total += int(l)
	}
	blob := string(d.buf[:total])
	d.buf = d.buf[total:]
	d.strs = make([]string, n)
	off := 0
	for i := range d.strs {
		l, k := binary.Uvarint(lens)
		lens = lens[k:]
		d.strs[i] = blob[off : off+int(l)]
		off += int(l)
	}
}
