package xmlpub

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"gapplydb/internal/types"
)

// Tagger assembles XML from rows in (key, branch, slots...) layout. It
// is the paper's constant-space middleware tagger: it holds only the
// current element's key, which is why both translation strategies must
// deliver rows clustered by key — the sorted outer union via ORDER BY,
// GApply by the semantics of its partition phase.
//
// The tag plan is compiled once, in NewTagger, into pre-rendered byte
// fragments; a row is then a sequence of appends into one reused buffer
// that reaches w in a single Write. Nothing on that path allocates.
type Tagger struct {
	w io.Writer

	rootOpen, rootClose string // "<root>\n", "</root>\n"
	elemOpen            string // "  <elem>\n    <key>"
	keyClose            string // "</key>\n"
	elemClose           string // "  </elem>\n"
	branches            []branchFrags

	buf  []byte        // one Row's (or Close's) output
	vals []types.Value // Row's unboxed view of a []any row

	started bool
	// open tracks whether an element is currently open. The key bytes
	// alone cannot: a NULL or empty-string grouping key also renders as
	// "", and such a group must still open exactly one element and close
	// it.
	open bool
	// curKey is the open element's key as rendered (escaped) bytes;
	// nextKey is the scratch the incoming row's key is rendered into.
	curKey, nextKey []byte
	err             error
}

// branchFrags is one branch of the tag plan with every constant byte
// pre-rendered. A wrapped branch emits
//
//	open attrs... mid fields... close      "    <w a="…"><f>…</f></w>\n"
//
// and a scalar branch, whose open, mid and close are empty, one indented
// line per field.
type branchFrags struct {
	open, mid, close string
	attrs, fields    []fieldFrags
	// minOrd and maxOrd bound the column ordinals the branch reads, so a
	// row is range-checked once, not per field.
	minOrd, maxOrd int
}

// fieldFrags wraps one cell: open value close, or empty for a NULL
// element (a NULL attribute is omitted altogether).
type fieldFrags struct {
	ord                int
	open, close, empty string
}

// NewTagger starts a document on w.
func NewTagger(plan *TagPlan, w io.Writer) *Tagger {
	t := &Tagger{
		w:         w,
		rootOpen:  "<" + plan.RootTag + ">\n",
		rootClose: "</" + plan.RootTag + ">\n",
		elemOpen:  "  <" + plan.ElemTag + ">\n    <" + plan.KeyTag + ">",
		keyClose:  "</" + plan.KeyTag + ">\n",
		elemClose: "  </" + plan.ElemTag + ">\n",
		branches:  make([]branchFrags, len(plan.Branches)),
	}
	for i, bp := range plan.Branches {
		bf := &t.branches[i]
		indent, nl := "    ", "\n"
		if bp.Wrap != "" {
			// Attributes go into the opening tag; elements follow as content.
			bf.open, bf.mid, bf.close = "    <"+bp.Wrap, ">", "</"+bp.Wrap+">\n"
			indent, nl = "", ""
		}
		for _, f := range bp.Fields {
			bf.minOrd, bf.maxOrd = min(bf.minOrd, f.Ordinal), max(bf.maxOrd, f.Ordinal)
			if f.Attr && bp.Wrap != "" {
				// The cell is XML-escaped, quotes included, so plain
				// name="value" quoting is safe.
				bf.attrs = append(bf.attrs, fieldFrags{ord: f.Ordinal, open: " " + f.Tag + `="`, close: `"`})
				continue
			}
			bf.fields = append(bf.fields, fieldFrags{
				ord:   f.Ordinal,
				open:  indent + "<" + f.Tag + ">",
				close: "</" + f.Tag + ">" + nl,
				empty: indent + "<" + f.Tag + "/>" + nl,
			})
		}
	}
	return t
}

// Row consumes one result row in the public API's boxed form. Rows must
// arrive clustered by key.
func (t *Tagger) Row(row []any) error {
	t.vals = t.vals[:0]
	for _, v := range row {
		tv, ok := types.FromGo(v)
		if !ok {
			tv = types.NewString(fmt.Sprint(v))
		}
		t.vals = append(t.vals, tv)
	}
	return t.TypedRow(t.vals)
}

// TypedRow consumes one result row as the engine produces it. It is the
// tagger's one core: Row unboxes into it.
func (t *Tagger) TypedRow(row types.Row) error {
	if t.err != nil {
		return t.err
	}
	if len(row) < 2 {
		return t.fail(fmt.Errorf("xmlpub: row needs at least key and branch columns, got %d", len(row)))
	}
	buf := t.buf[:0]
	if !t.started {
		buf = append(buf, t.rootOpen...)
		t.started = true
	}
	t.nextKey = appendCell(t.nextKey[:0], row[0])
	if !t.open || !bytes.Equal(t.nextKey, t.curKey) {
		if t.open {
			buf = append(buf, t.elemClose...)
		}
		t.open = true
		t.curKey, t.nextKey = t.nextKey, t.curKey
		buf = append(buf, t.elemOpen...)
		buf = append(buf, t.curKey...)
		buf = append(buf, t.keyClose...)
	}
	branch, ok := branchID(row[1])
	if !ok || branch < 0 || branch >= int64(len(t.branches)) {
		return t.fail(fmt.Errorf("xmlpub: bad branch id %v", row[1]))
	}
	bf := &t.branches[branch]
	if bf.minOrd < 0 || bf.maxOrd >= len(row) {
		bad := bf.maxOrd
		if bf.minOrd < 0 {
			bad = bf.minOrd
		}
		return t.fail(fmt.Errorf("xmlpub: field ordinal %d out of range (%d columns)", bad, len(row)))
	}
	buf = append(buf, bf.open...)
	for i := range bf.attrs {
		f := &bf.attrs[i]
		if v := row[f.ord]; !v.IsNull() {
			buf = append(buf, f.open...)
			buf = appendCell(buf, v)
			buf = append(buf, f.close...)
		}
	}
	buf = append(buf, bf.mid...)
	for i := range bf.fields {
		f := &bf.fields[i]
		if v := row[f.ord]; v.IsNull() {
			buf = append(buf, f.empty...)
		} else {
			buf = append(buf, f.open...)
			buf = appendCell(buf, v)
			buf = append(buf, f.close...)
		}
	}
	buf = append(buf, bf.close...)
	return t.write(buf)
}

// write hands one call's output to w in a single Write and keeps the
// buffer for the next call.
func (t *Tagger) write(buf []byte) error {
	t.buf = buf
	if _, err := t.w.Write(buf); err != nil {
		t.err = err
	}
	return t.err
}

func (t *Tagger) fail(err error) error {
	t.err = err
	return err
}

// appendCell appends a cell's XML text: numbers and booleans in their
// shortest Go rendering, strings escaped, NULL as nothing.
func appendCell(dst []byte, v types.Value) []byte {
	switch v.K {
	case types.KindInt, types.KindDate:
		return strconv.AppendInt(dst, v.I, 10)
	case types.KindFloat:
		return appendFloat(dst, v.F)
	case types.KindString:
		return appendEscaped(dst, v.S)
	case types.KindBool:
		return strconv.AppendBool(dst, v.I != 0)
	default:
		return dst
	}
}

// appendFloat appends what strconv.AppendFloat(dst, f, 'g', -1, 64) does.
// A whole number n = c of hundredths in [0.01, 1e6), as money is, skips
// the shortest-digit search: c/100 is correctly rounded, so the decimal
// n/100 parses to f; no two decimals of ≤ 15 digits parse to one float64,
// so no shorter one does; and 'g' writes exponents −4 to 5 plainly.
func appendFloat(dst []byte, f float64) []byte {
	if a := math.Abs(f); a >= 0.01 && a < 1e6 {
		if c := math.Round(f * 100); c/100 == f {
			n := int64(c)
			if n < 0 {
				dst, n = append(dst, '-'), -n
			}
			dst = strconv.AppendInt(dst, n/100, 10)
			if h := n % 100; h != 0 {
				dst = append(dst, '.', byte('0'+h/10), byte('0'+h%10))
				dst = bytes.TrimSuffix(dst, []byte{'0'})
			}
			return dst
		}
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// asciiEscape maps each ASCII byte to its replacement, "" for the bytes
// that stand for themselves.
var asciiEscape = func() (tab [utf8.RuneSelf]string) {
	for c := 0; c < 0x20; c++ {
		tab[c] = "\uFFFD" // outside the XML character range
	}
	tab['\t'], tab['\n'], tab['\r'] = "&#x9;", "&#xA;", "&#xD;"
	tab['"'], tab['\''] = "&#34;", "&#39;"
	tab['&'], tab['<'], tab['>'] = "&amp;", "&lt;", "&gt;"
	return tab
}()

// appendEscaped appends s escaped for XML text and attribute values,
// byte for byte what encoding/xml.EscapeText writes: the five markup
// characters and tab, newline and carriage return become character
// references, and anything outside the XML character range — other
// control characters, U+FFFE, U+FFFF, invalid UTF-8 — becomes U+FFFD.
// A string with nothing to escape costs one scan and one append.
func appendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if esc := asciiEscape[c]; esc != "" {
				dst = append(dst, s[last:i]...)
				dst = append(dst, esc...)
				last = i + 1
			}
			i++
			continue
		}
		r, width := utf8.DecodeRuneInString(s[i:])
		// Every multi-byte rune is in the XML character range except
		// U+FFFE and U+FFFF; a decoding error reports U+FFFD with width 1.
		if r == 0xFFFE || r == 0xFFFF || (r == utf8.RuneError && width == 1) {
			dst = append(dst, s[last:i]...)
			dst = append(dst, "\uFFFD"...)
			last = i + width
		}
		i += width
	}
	return append(dst, s[last:]...)
}

// branchID reads the branch column. Integral floats are accepted — a
// value codec may deliver the id as one — but fractional ones are not:
// silently truncating 1.7 to branch 1 would route the row's slots into
// the wrong branch's tags.
func branchID(v types.Value) (int64, bool) {
	switch v.K {
	case types.KindInt:
		return v.I, true
	case types.KindFloat:
		if float64(int64(v.F)) != v.F {
			return 0, false
		}
		return int64(v.F), true
	default:
		return 0, false
	}
}

// Close ends the document.
func (t *Tagger) Close() error {
	if t.err != nil {
		return t.err
	}
	buf := t.buf[:0]
	if !t.started {
		buf = append(buf, t.rootOpen...)
		t.started = true
	} else if t.open {
		buf = append(buf, t.elemClose...)
	}
	t.open = false
	buf = append(buf, t.rootClose...)
	return t.write(buf)
}

// TagAll runs a full row set through a fresh tagger.
func TagAll(plan *TagPlan, rows [][]any, w io.Writer) error {
	tg := NewTagger(plan, w)
	for _, r := range rows {
		if err := tg.Row(r); err != nil {
			return err
		}
	}
	return tg.Close()
}
