package httpjson

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// An Appender writes its own JSON encoding: AppendJSON appends to dst
// the bytes json.Marshal writes for the value. Write and Call use it in
// place of encoding/json for a value that has it. An Appender may
// decline a value, one it does not care to write or one json.Marshal
// refuses, by appending nothing; encoding/json then encodes it, and
// reports why it cannot.
type Appender interface {
	AppendJSON(dst []byte) []byte
}

// A FastReader reads the common shape of its own JSON body without
// reflection. ReadJSON reports whether it read data; when it did, the
// value must be what encoding/json would have made of data, Decode's
// strict decoder and Call's json.Unmarshal alike. On false it leaves
// the value as it found it and encoding/json reads data, so a fast
// reader may refuse anything it does not care to read and every error
// stays encoding/json's. data is a pooled buffer: the value must keep
// no reference to it.
type FastReader interface {
	ReadJSON(data []byte) bool
}

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string, escaped exactly as
// encoding/json escapes it: '"', '\\' and control bytes, HTML's '<',
// '>' and '&' as \u escapes, U+2028 and U+2029, and each byte of
// invalid UTF-8 as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from
// 1e21 on. JSON has no NaN or infinity; json.Marshal refuses them, and
// so must a caller.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendNonZero appends an omitempty integer member, its key given
// with the comma before it (`,"size":`): nothing when v is 0.
func AppendNonZero(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, key...)
	return strconv.AppendInt(dst, v, 10)
}

// AppendNonZeroFloat appends an omitempty float member as AppendNonZero
// appends an integer one.
func AppendNonZeroFloat(dst []byte, key string, f float64) []byte {
	if f == 0 {
		return dst
	}
	dst = append(dst, key...)
	return AppendFloat(dst, f)
}

// CloseObject ends an object whose members were each appended with a
// leading comma from sep on: the first comma goes.
func CloseObject(dst []byte, sep int) []byte {
	if len(dst) > sep {
		dst = append(dst[:sep], dst[sep+1:]...)
	}
	return append(dst, '}')
}

// AppendInts appends v as a JSON array.
func AppendInts(dst []byte, v []int) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// AppendIntMap appends m as a JSON object, its keys sorted as
// encoding/json sorts a map's keys. A message's few keys fit the array,
// which stays on the stack.
func AppendIntMap(dst []byte, m map[string]int) []byte {
	var arr [8]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, k)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(m[k]), 10)
	}
	return append(dst, '}')
}

// AppendTime appends t as time.Time's MarshalJSON writes it: a quoted
// RFC 3339 stamp with nanoseconds, trailing zeros dropped. MarshalJSON
// refuses a year outside [0, 9999]; so must a caller.
func AppendTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}

// A Lexer reads the tokens of the canonical JSON a FastReader accepts
// and nothing else: strings of printable ASCII without escapes,
// numbers, true and false, and the delimiters, each after optional
// whitespace. Every method reports false, and may leave the Lexer
// anywhere, on input outside that subset; the reader then gives up.
type Lexer struct {
	data []byte
	pos  int
}

// NewLexer returns a Lexer at the start of data.
func NewLexer(data []byte) Lexer { return Lexer{data: data} }

func (l *Lexer) skipSpace() {
	for l.pos < len(l.data) {
		switch l.data[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return
		}
	}
}

// Delim consumes c, one of {}[],: after whitespace, and reports whether
// it was there; if not, nothing but the whitespace is consumed.
func (l *Lexer) Delim(c byte) bool {
	l.skipSpace()
	return l.next(c)
}

// End reports whether nothing but whitespace is left.
func (l *Lexer) End() bool {
	l.skipSpace()
	return l.pos == len(l.data)
}

// plain reads a string of printable ASCII without escapes and returns
// its contents, which alias the input.
func (l *Lexer) plain() ([]byte, bool) {
	if !l.Delim('"') {
		return nil, false
	}
	start := l.pos
	for ; l.pos < len(l.data); l.pos++ {
		switch b := l.data[l.pos]; {
		case b == '"':
			l.pos++
			return l.data[start : l.pos-1], true
		case b < 0x20 || b > 0x7e || b == '\\':
			return nil, false
		}
	}
	return nil, false
}

// Key reads an object key and its colon. The key aliases the input:
// compare it, or copy it with string(key) to keep it.
func (l *Lexer) Key() ([]byte, bool) {
	key, ok := l.plain()
	return key, ok && l.Delim(':')
}

// Text reads a string value.
func (l *Lexer) Text() (string, bool) {
	s, ok := l.plain()
	return string(s), ok
}

// Bool reads true or false.
func (l *Lexer) Bool() (v, ok bool) {
	l.skipSpace()
	rest := l.data[l.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		l.pos += 4
		v = true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		l.pos += 5
	default:
		return false, false
	}
	return v, !l.wordFollows()
}

// wordFollows reports whether the byte after a literal or a number
// continues it (a letter, a digit, a fraction or an exponent), which
// makes the token one the Lexer does not read.
func (l *Lexer) wordFollows() bool {
	if l.pos == len(l.data) {
		return false
	}
	switch b := l.data[l.pos]; {
	case b >= '0' && b <= '9', b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b == '.', b == '-', b == '+':
		return true
	}
	return false
}

// number reads an integer literal, -?(0|[1-9][0-9]*), as its magnitude
// and sign; false if it has a fraction or an exponent or its magnitude
// overflows a uint64.
func (l *Lexer) number() (mag uint64, neg, ok bool) {
	l.skipSpace()
	if l.pos < len(l.data) && l.data[l.pos] == '-' {
		neg = true
		l.pos++
	}
	start := l.pos
	for ; l.pos < len(l.data); l.pos++ {
		d := l.data[l.pos] - '0'
		if d > 9 {
			break
		}
		if l.pos > start && l.data[start] == '0' {
			return 0, false, false // a leading zero
		}
		if mag > (math.MaxUint64-uint64(d))/10 {
			return 0, false, false
		}
		mag = mag*10 + uint64(d)
	}
	return mag, neg, l.pos > start && !l.wordFollows()
}

// Int64 reads an integer literal that fits an int64.
func (l *Lexer) Int64() (int64, bool) {
	mag, neg, ok := l.number()
	switch {
	case !ok:
		return 0, false
	case neg && mag <= 1<<63:
		return int64(-mag), true
	case !neg && mag < 1<<63:
		return int64(mag), true
	}
	return 0, false
}

// Int reads an integer literal that fits an int.
func (l *Lexer) Int() (int, bool) {
	v, ok := l.Int64()
	return int(v), ok && v >= math.MinInt && v <= math.MaxInt
}

// Uint64 reads a non-negative integer literal that fits a uint64.
func (l *Lexer) Uint64() (uint64, bool) {
	mag, neg, ok := l.number()
	return mag, ok && !neg
}

// digits consumes a run of decimal digits and returns its length.
func (l *Lexer) digits() int {
	start := l.pos
	for l.pos < len(l.data) && l.data[l.pos]-'0' <= 9 {
		l.pos++
	}
	return l.pos - start
}

// next consumes c if it is the next byte, with no whitespace before it.
func (l *Lexer) next(c byte) bool {
	if l.pos < len(l.data) && l.data[l.pos] == c {
		l.pos++
		return true
	}
	return false
}

// Float64 reads a number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// as strconv.ParseFloat reads it, which is how encoding/json reads a
// float64; false if it is out of a float64's range.
func (l *Lexer) Float64() (float64, bool) {
	l.skipSpace()
	start := l.pos
	l.next('-')
	if n := l.digits(); n == 0 || n > 1 && l.data[l.pos-n] == '0' {
		return 0, false
	}
	if l.next('.') && l.digits() == 0 {
		return 0, false
	}
	if l.next('e') || l.next('E') {
		_ = l.next('+') || l.next('-')
		if l.digits() == 0 {
			return 0, false
		}
	}
	if l.wordFollows() {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(l.data[start:l.pos]), 64)
	return f, err == nil
}

// MaxMembers bounds the members of an object a Lexer reads. Every
// message's fit; a longer object, which the key-by-key duplicate check
// would make quadratic, is left to encoding/json.
const MaxMembers = 32

// Object reads an object one member at a time: member is called with
// each key, the Lexer at its value, and reads the value or reports
// false. A key seen twice is refused like a value member refuses, and
// so is an object of more than MaxMembers members. The key aliases the
// input; {} reads with no call.
func (l *Lexer) Object(member func(key []byte) bool) bool {
	if !l.Delim('{') {
		return false
	}
	if l.Delim('}') {
		return true
	}
	var seen [MaxMembers][]byte
	for n := 0; ; n++ {
		key, ok := l.Key()
		if !ok || n == MaxMembers {
			return false
		}
		for _, k := range seen[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		seen[n] = key
		if !member(key) {
			return false
		}
		if l.Delim('}') {
			return true
		}
		if !l.Delim(',') {
			return false
		}
	}
}

// Array reads an array, calling elem to read each element; [] reads
// with no call.
func (l *Lexer) Array(elem func() bool) bool {
	if !l.Delim('[') {
		return false
	}
	if l.Delim(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if l.Delim(']') {
			return true
		}
		if !l.Delim(',') {
			return false
		}
	}
}

// Ints reads an array of integer literals that each fit an int. [] is
// an empty slice, not nil, as encoding/json makes it.
func (l *Lexer) Ints() ([]int, bool) {
	out := []int{}
	ok := l.Array(func() bool {
		if cap(out) == 0 {
			// One allocation for the common array: size it by the
			// commas before the first ']', capped so that a run of
			// bare commas costs little.
			n := 1
			if end := bytes.IndexByte(l.data[l.pos:], ']'); end >= 0 {
				n += bytes.Count(l.data[l.pos:l.pos+end], []byte{','})
			}
			out = make([]int, 0, min(n, 1<<10))
		}
		v, ok := l.Int()
		out = append(out, v)
		return ok
	})
	return out, ok
}

// IntMap reads a flat object of integer literals that each fit an int.
// {} is an empty map, not nil, as encoding/json makes it.
func (l *Lexer) IntMap() (map[string]int, bool) {
	m := make(map[string]int)
	ok := l.Object(func(key []byte) bool {
		v, ok := l.Int()
		m[string(key)] = v
		return ok
	})
	return m, ok
}
