package progcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// EnvelopeKey computes the Tier A key of a raw /v1/run or /v1/codegen
// request body in one scan, without decoding it: the key equals
// BodyHash(program, strings.ToLower(format)), where program is the
// "project" member, or "script" when project is empty, exactly as
// json.NewDecoder(body).Decode into those string fields would read them.
// Like that decoder, only the first JSON value counts (trailing bytes are
// ignored), only top-level members count, and a later duplicate wins;
// string escapes and invalid UTF-8 are resolved as encoding/json resolves
// them.
//
// ok is false when the body is not such an envelope, or when the scan
// would have to guess at encoding/json's behaviour: a key that reaches one
// of the three fields only through case folding ("Project", "ſcript"), an
// escaped key, a null or non-string value of one of the three, a
// non-ASCII format, nesting deeper than maxScanDepth, or no program at
// all. Callers then decode the body the slow way.
//
// The only allocation on success is the returned key: the program is
// unescaped into a pooled scratch buffer and hashed once.
func EnvelopeKey(body []byte) (key string, ok bool) {
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return "", false
	}
	var env envelope
	if skipValue(body, i, 1, &env) < 0 {
		return "", false
	}
	program := env.project
	if len(program) == 0 {
		program = env.script
	}
	if len(program) == 0 {
		return "", false
	}

	bp := scratchPool.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= maxPooledScratch {
			scratchPool.Put(bp)
		}
	}()
	// hashBody's layout: le64(len(format)) || format || program.
	buf := appendUnquoted(append((*bp)[:0], 0, 0, 0, 0, 0, 0, 0, 0), env.format)
	f := buf[8:]
	for i, c := range f {
		switch {
		case c >= utf8.RuneSelf:
			return "", false // strings.ToLower's Unicode rules: leave to the decoder
		case 'A' <= c && c <= 'Z':
			f[i] = c + 'a' - 'A'
		}
	}
	binary.LittleEndian.PutUint64(buf, uint64(len(f)))
	buf = appendUnquoted(buf, program)
	*bp = buf
	sum := sha256.Sum256(buf)
	return string(sum[:]), true
}

// maxPooledScratch bounds the scratch buffers kept for reuse: the default
// 1 MiB body cap, with room for invalid UTF-8 tripling in replacement.
const maxPooledScratch = 4 << 20

var scratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 32<<10)
	return &b
}}

// maxScanDepth bounds the nesting the scan follows; deeper bodies fall
// back to the decoder (whose own limit is far higher).
const maxScanDepth = 64

// envelope holds the raw contents (quotes stripped, escapes intact) of
// the last "project", "script" and "format" members of a request body.
type envelope struct {
	project, script, format []byte
}

// field returns where the member named key is recorded (nil for members
// the envelope ignores), or ok=false for a key that would reach one of the
// three only through encoding/json's case-insensitive matching.
func (env *envelope) field(key []byte) (field *[]byte, ok bool) {
	switch string(key) {
	case "project":
		return &env.project, true
	case "script":
		return &env.script, true
	case "format":
		return &env.format, true
	}
	for _, name := range []string{"project", "script", "format"} {
		if bytes.EqualFold(key, []byte(name)) {
			return nil, false
		}
	}
	return nil, true
}

func skipSpace(b []byte, i int) int {
	for ; i < len(b); i++ {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return i
		}
	}
	return i
}

// scanString validates the JSON string whose contents start at b[i] and
// returns the index of its closing quote (-1 when the string is invalid
// or unterminated) and whether it contains any escape.
func scanString(b []byte, i int) (end int, escaped bool) {
	for {
		i += firstMarked(b[i:], stringMarks)
		if i >= len(b) {
			return -1, false
		}
		switch b[i] {
		case '"':
			return i, escaped
		case '\\':
		default:
			return -1, false // a raw control byte
		}
		escaped = true
		if i++; i >= len(b) {
			return -1, false
		}
		switch b[i] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			i++
		case 'u':
			if i+5 > len(b) || hex4(b[i+1:i+5]) < 0 {
				return -1, false
			}
			i += 5
		default:
			return -1, false
		}
	}
}

// Byte classes firstMarked looks for, eight bytes at a time.
const (
	stringMarks   = iota // '"', '\\' or a control byte below 0x20
	unescapeMarks        // '\\' or a non-ASCII byte
)

// firstMarked returns the index of the first byte of s in the given
// class, or len(s). Each word test flags its lowest matching byte exactly
// (a spurious flag only ever sits above a true one), so the lowest flag
// is the answer.
func firstMarked(s []byte, class int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := binary.LittleEndian.Uint64(s[i:])
		bs := x ^ (ones * '\\')
		m := (bs - ones) &^ bs
		if class == stringMarks {
			q := x ^ (ones * '"')
			m |= (q-ones)&^q | (x-ones*0x20)&^x
		} else {
			m |= x
		}
		if m &= highs; m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	for ; i < len(s); i++ {
		c := s[i]
		if c == '\\' || (class == stringMarks && (c == '"' || c < 0x20)) || (class == unescapeMarks && c >= utf8.RuneSelf) {
			return i
		}
	}
	return i
}

// hex4 decodes four hex digits, or returns -1.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skipValue validates the JSON value starting at b[i] and returns the
// index just past it, or -1. With env set, the value is the top-level
// object and its envelope members are recorded there: each must be a
// string, and escaped keys are refused.
func skipValue(b []byte, i, depth int, env *envelope) int {
	if i >= len(b) {
		return -1
	}
	switch c := b[i]; c {
	case '"':
		end, _ := scanString(b, i+1)
		if end < 0 {
			return -1
		}
		return end + 1
	case '{', '[':
		if depth > maxScanDepth {
			return -1
		}
		closer := byte(']')
		if c == '{' {
			closer = '}'
		}
		if i = skipSpace(b, i+1); i < len(b) && b[i] == closer {
			return i + 1
		}
		for {
			var field *[]byte
			if c == '{' {
				if i >= len(b) || b[i] != '"' {
					return -1
				}
				end, escaped := scanString(b, i+1)
				if end < 0 {
					return -1
				}
				if env != nil {
					var ok bool
					if field, ok = env.field(b[i+1 : end]); !ok || escaped {
						return -1
					}
				}
				if i = skipSpace(b, end+1); i >= len(b) || b[i] != ':' {
					return -1
				}
				i = skipSpace(b, i+1)
			}
			if field != nil {
				if i >= len(b) || b[i] != '"' {
					return -1
				}
				end, _ := scanString(b, i+1)
				if end < 0 {
					return -1
				}
				*field, i = b[i+1:end], end+1
			} else if i = skipValue(b, i, depth+1, nil); i < 0 {
				return -1
			}
			if i = skipSpace(b, i); i >= len(b) {
				return -1
			}
			switch b[i] {
			case ',':
				i = skipSpace(b, i+1)
			case closer:
				return i + 1
			default:
				return -1
			}
		}
	case 't':
		return skipLiteral(b, i, "true")
	case 'f':
		return skipLiteral(b, i, "false")
	case 'n':
		return skipLiteral(b, i, "null")
	}
	return skipNumber(b, i)
}

func skipLiteral(b []byte, i int, lit string) int {
	if !bytes.HasPrefix(b[i:], []byte(lit)) {
		return -1
	}
	return i + len(lit)
}

// skipNumber validates a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func skipNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if j := skipDigits(b, i+1); j > i+1 {
			i = j
		} else {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := skipDigits(b, i); j > i {
			i = j
		} else {
			return -1
		}
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// appendUnquoted appends the decoded form of the raw contents of a JSON
// string that scanString validated, resolving escapes, surrogate pairs,
// lone surrogates and invalid UTF-8 exactly as encoding/json does.
func appendUnquoted(dst, s []byte) []byte {
	for {
		k := firstMarked(s, unescapeMarks)
		dst = append(dst, s[:k]...)
		if k == len(s) {
			return dst
		}
		if s = s[k:]; s[0] >= utf8.RuneSelf {
			r, n := utf8.DecodeRune(s)
			if r == utf8.RuneError && n == 1 {
				dst = utf8.AppendRune(dst, utf8.RuneError)
			} else {
				dst = append(dst, s[:n]...)
			}
			s = s[n:]
			continue
		}
		c := s[1]
		s = s[2:]
		switch c {
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := hex4(s)
			s = s[4:]
			if utf16.IsSurrogate(r) {
				if len(s) >= 6 && s[0] == '\\' && s[1] == 'u' {
					if pair := utf16.DecodeRune(r, hex4(s[2:])); pair != utf8.RuneError {
						dst = utf8.AppendRune(dst, pair)
						s = s[6:]
						continue
					}
				}
				r = utf8.RuneError
			}
			dst = utf8.AppendRune(dst, r)
		default: // '"', '\\', '/'
			dst = append(dst, c)
		}
	}
}
