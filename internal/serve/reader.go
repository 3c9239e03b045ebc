package serve

import (
	"bytes"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The request reader: a one-pass decoder for the bodies of POST
// /v1/check and /v1/batch. The fleet coordinator repeats a pair's
// literal in every item of a batch, nine times for the nine models, and
// encoding/json scans and unquotes every copy; this reader finds each
// literal's closing quote with bytes.IndexByte, decodes a literal once,
// and takes a later literal whose bytes equal the previous long one's
// as the same string.
//
// It accepts only bodies whose meaning encoding/json agrees on: one
// object, then whitespace; exact-case known keys, each at most once; no
// null; integers in plain syntax (-?(0|[1-9][0-9]*)) that fit their
// field; strings of valid UTF-8 with no raw control byte and no
// surrogate \u escape (encoding/json would substitute U+FFFD for those
// or reject them). On any other body it reports false, and decode hands
// the same bytes to encoding/json, so every value it decodes and every
// error text is encoding/json's. FuzzRequestReader holds the two to the
// same values; decoded strings never alias the body.

// repeatMin is the length from which a string literal is remembered
// for the repeated-literal rule: pairs are, IDs and model names are
// not, so they do not displace the pair between its copies.
const repeatMin = 32

// reader walks one request body.
type reader struct {
	b []byte
	i int
	// prev is the last decoded literal of at least repeatMin bytes, as
	// it stands in the body between its quotes, and prevStr its value.
	prev    []byte
	prevStr string
}

// readRequest decodes body into v, a *CheckRequest or *BatchRequest,
// and reports whether it did; on false v is left zero, and any other v
// is left alone.
func readRequest(body []byte, v any) bool {
	r := reader{b: body}
	switch v := v.(type) {
	case *CheckRequest:
		if r.check(v) && r.end() {
			return true
		}
		*v = CheckRequest{}
	case *BatchRequest:
		if r.batch(v) && r.end() {
			return true
		}
		*v = BatchRequest{}
	}
	return false
}

func (r *reader) check(req *CheckRequest) bool {
	var seen uint8
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "pair":
			return once(&seen, 1) && r.str(&req.Pair)
		case "models":
			return once(&seen, 2) && r.strs(&req.Models)
		case "options":
			return once(&seen, 4) && r.options(&req.Options)
		}
		return false
	})
}

func (r *reader) batch(req *BatchRequest) bool {
	var seen uint8
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "items":
			return once(&seen, 1) && r.items(&req.Items)
		case "options":
			return once(&seen, 2) && r.options(&req.Options)
		}
		return false
	})
}

func (r *reader) items(dst *[]BatchItem) bool {
	*dst = []BatchItem{} // encoding/json decodes [] as empty, not nil
	return r.array(func() bool {
		*dst = append(*dst, BatchItem{})
		it := &(*dst)[len(*dst)-1]
		var seen uint8
		return r.object(func(key []byte) bool {
			switch string(key) {
			case "id":
				return once(&seen, 1) && r.str(&it.ID)
			case "pair":
				return once(&seen, 2) && r.str(&it.Pair)
			case "model":
				return once(&seen, 4) && r.str(&it.Model)
			case "root_lo":
				return once(&seen, 8) && r.intField(&it.RootLo)
			case "root_hi":
				return once(&seen, 16) && r.intField(&it.RootHi)
			}
			return false
		})
	})
}

func (r *reader) options(o *Options) bool {
	var seen uint8
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "timeout_ms":
			return once(&seen, 1) && r.integer(&o.TimeoutMS, 64)
		case "max_states":
			return once(&seen, 2) && r.integer(&o.MaxStates, 64)
		case "max_memo_mb":
			return once(&seen, 4) && r.integer(&o.MaxMemoMB, 64)
		case "workers":
			return once(&seen, 8) && r.intField(&o.Workers)
		}
		return false
	})
}

func (r *reader) strs(dst *[]string) bool {
	*dst = []string{}
	return r.array(func() bool {
		var s string
		if !r.str(&s) {
			return false
		}
		*dst = append(*dst, s)
		return true
	})
}

// once reports whether bit is not yet in *seen, adding it: a key given
// twice is for encoding/json to merge.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// ws skips JSON whitespace.
func (r *reader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// next skips whitespace and then c if it comes next, reporting whether
// it did.
func (r *reader) next(c byte) bool {
	r.ws()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (r *reader) end() bool {
	r.ws()
	return r.i == len(r.b)
}

// object reads an object, calling member with each key once the colon
// after it is read; member reads the value.
func (r *reader) object(member func(key []byte) bool) bool {
	if !r.next('{') {
		return false
	}
	if r.next('}') {
		return true
	}
	for {
		r.ws()
		if r.i >= len(r.b) || r.b[r.i] != '"' {
			return false
		}
		end, ok := closingQuote(r.b, r.i+1)
		key := r.b[r.i+1 : end]
		if !ok || bytes.IndexByte(key, '\\') >= 0 {
			return false // an escaped key may spell a known one
		}
		r.i = end + 1
		if !r.next(':') || !member(key) {
			return false
		}
		if !r.next(',') {
			return r.next('}')
		}
	}
}

// array reads an array, calling elem to read each element.
func (r *reader) array(elem func() bool) bool {
	if !r.next('[') {
		return false
	}
	if r.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !r.next(',') {
			return r.next(']')
		}
	}
}

// str reads a string literal into *dst.
func (r *reader) str(dst *string) bool {
	if !r.next('"') {
		return false
	}
	b, start := r.b, r.i
	// The repeated-literal rule: prev held no unescaped quote and ended
	// on a complete escape, so its bytes followed by a quote are the
	// same literal.
	if n := len(r.prev); n > 0 && len(b)-start > n && b[start+n] == '"' && bytes.Equal(b[start:start+n], r.prev) {
		r.i = start + n + 1
		*dst = r.prevStr
		return true
	}
	end, ok := closingQuote(b, start)
	if !ok {
		return false
	}
	raw := b[start:end]
	s, ok := unquote(raw)
	if !ok {
		return false
	}
	if len(raw) >= repeatMin {
		r.prev, r.prevStr = raw, s
	}
	r.i = end + 1
	*dst = s
	return true
}

// intField reads an integer that fits an int into *dst.
func (r *reader) intField(dst *int) bool {
	var v int64
	ok := r.integer(&v, strconv.IntSize)
	*dst = int(v)
	return ok
}

// integer reads an integer in plain syntax that fits in bits bits into
// *dst.
func (r *reader) integer(dst *int64, bits int) bool {
	r.ws()
	b, i := r.b, r.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	var v uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (limit-d)/10 {
			return false // out of range: encoding/json's error
		}
		v = v*10 + d
	}
	switch {
	case i == start, b[start] == '0' && i > start+1:
		return false // no digits, or a leading zero
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return false // a fraction or exponent is no int
	}
	r.i = i
	*dst = int64(v)
	if neg {
		*dst = -*dst
	}
	return true
}

// closingQuote returns the index of the quote that closes the string
// literal whose content starts at b[start], reporting false when none
// does.
func closingQuote(b []byte, start int) (int, bool) {
	for i := start; ; i++ {
		j := bytes.IndexByte(b[i:], '"')
		if j < 0 {
			return len(b), false
		}
		i += j
		k := i
		for k > start && b[k-1] == '\\' {
			k--
		}
		if (i-k)%2 == 0 {
			return i, true
		}
	}
}

// unquote returns the value of a string literal's content raw, which
// holds no unescaped quote, or false when encoding/json would reject it
// or decode it other than byte for byte.
func unquote(raw []byte) (string, bool) {
	j := bytes.IndexByte(raw, '\\')
	if j < 0 {
		if !plain(raw) {
			return "", false
		}
		return string(raw), true
	}
	var sb strings.Builder
	sb.Grow(len(raw)) // an escape is never shorter than what it stands for
	for ; j >= 0; j = bytes.IndexByte(raw, '\\') {
		if !plain(raw[:j]) || j+1 == len(raw) {
			return "", false
		}
		sb.Write(raw[:j])
		c := raw[j+1]
		raw = raw[j+2:]
		if k := strings.IndexByte(`"\/bfnrt`, c); k >= 0 {
			sb.WriteByte("\"\\/\b\f\n\r\t"[k])
			continue
		}
		if c != 'u' || len(raw) < 4 {
			return "", false
		}
		u, err := strconv.ParseUint(string(raw[:4]), 16, 16)
		if err != nil || utf16.IsSurrogate(rune(u)) {
			return "", false
		}
		sb.WriteRune(rune(u))
		raw = raw[4:]
	}
	if !plain(raw) {
		return "", false
	}
	sb.Write(raw)
	return sb.String(), true
}

// plain reports whether s, a stretch of a literal with no escape in
// it, holds no control byte and is valid UTF-8.
func plain(s []byte) bool {
	var high byte
	for _, c := range s {
		if c < 0x20 {
			return false
		}
		high |= c
	}
	return high < utf8.RuneSelf || utf8.Valid(s)
}
