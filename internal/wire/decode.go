package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// TaskLine is one bulk/stream NDJSON input line: the request envelope plus
// the bulk id and shard labels.
type TaskLine struct {
	ID string `json:"id,omitempty"`
	Request
	Shard string `json:"shard,omitempty"`
}

// DecodeRequest decodes the request envelope at the start of body exactly as
// a json.Decoder with DisallowUnknownFields decodes its first value: bytes
// after that value are never looked at, and every accepted value and every
// error is the decoder's own.
//
// The common shape — an object whose keys are the envelope's lowercase
// field names, each at most once, with string values (a string array for
// separator_list) holding valid UTF-8 and no surrogate escapes — is decoded
// in one pass, each string unescaped straight into one exactly-sized
// allocation. Anything else (case-folded or unknown keys, duplicates, null,
// other value types, invalid input) is handed to encoding/json on the same
// bytes. The decoded strings never alias body.
func DecodeRequest(body []byte) (Request, error) {
	var req Request
	if decodeFast(body, &req, nil) {
		return req, nil
	}
	req = Request{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// DecodeTaskLine decodes one NDJSON task line in the common shape (see
// DecodeRequest; the id and shard keys are also taken) exactly as
// json.Unmarshal would: only whitespace may follow the object. It reports
// false for any other line, which the caller decodes with json.Unmarshal
// into its own envelope type, so encoding/json's error texts keep naming
// that type. The decoded strings never alias line.
func DecodeTaskLine(line []byte) (TaskLine, bool) {
	var tl TaskLine
	if decodeFast(line, &tl.Request, &tl) {
		return tl, true
	}
	return TaskLine{}, false
}

// maxPooledBody bounds the body and unescape buffers kept for reuse, so one
// large body does not stay resident after its request.
const maxPooledBody = 1 << 20

var (
	bodyPool    = sync.Pool{New: func() any { return new([]byte) }}
	scratchPool = sync.Pool{New: func() any { return new([]byte) }}
)

// ReadRequest reads body to its end into a pooled buffer and decodes it with
// DecodeRequest. A read error — an over-limit body under
// http.MaxBytesReader, a broken connection — replays the bytes read, then
// that error, through encoding/json's streaming decoder, so the outcome is
// exactly json.NewDecoder(body).Decode's: the envelope still decodes when
// it ended before the error, and the error is returned unwrapped otherwise.
// The buffer goes back to the pool before ReadRequest returns; nothing
// returned aliases it.
func ReadRequest(body io.Reader) (Request, error) {
	bp := bodyPool.Get().(*[]byte)
	buf := (*bp)[:0]
	var rerr error
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err != io.EOF { // Read returns io.EOF bare; json.Decoder tests it with ==
				rerr = err
			}
			break
		}
	}
	var (
		req Request
		err error
	)
	if rerr == nil {
		req, err = DecodeRequest(buf)
	} else {
		dec := json.NewDecoder(io.MultiReader(bytes.NewReader(buf), errReader{rerr}))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	}
	if cap(buf) <= maxPooledBody {
		*bp = buf[:0]
		bodyPool.Put(bp)
	}
	return req, err
}

// errReader replays a read error after the buffered bytes.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// Field bits for duplicate-key detection.
const (
	fieldHTML = 1 << iota
	fieldXML
	fieldOntology
	fieldSeparatorList
	fieldID
	fieldShard
)

// decodeFast decodes the common envelope shape into req, reporting false on
// anything outside it. A non-nil tl makes data a task line: it also takes
// the id and shard keys, and only whitespace may follow the object, as
// json.Unmarshal requires. Otherwise bytes after the object are ignored, as
// json.Decoder does.
func decodeFast(data []byte, req *Request, tl *TaskLine) bool {
	sp := scratchPool.Get().(*[]byte)
	defer func() {
		if cap(*sp) <= maxPooledBody {
			scratchPool.Put(sp)
		}
	}()
	i := skipSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return finish(data, i+1, tl != nil)
	}
	seen := 0
	for {
		if i >= len(data) || data[i] != '"' {
			return false
		}
		k := i + 1
		for k < len(data) && data[k] != '"' && data[k] != '\\' && data[k] >= 0x20 && data[k] < 0x80 {
			k++
		}
		if k >= len(data) || data[k] != '"' {
			return false
		}
		bit := fieldBit(data[i+1:k], tl != nil)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		i = skipSpace(data, k+1)
		if i >= len(data) || data[i] != ':' {
			return false
		}
		i = skipSpace(data, i+1)
		var ok bool
		if bit == fieldSeparatorList {
			req.SeparatorList, i, ok = stringArray(data, i, sp)
		} else {
			var s string
			s, i, ok = stringValue(data, i, sp)
			switch bit {
			case fieldHTML:
				req.HTML = s
			case fieldXML:
				req.XML = s
			case fieldOntology:
				req.Ontology = s
			case fieldID:
				tl.ID = s
			case fieldShard:
				tl.Shard = s
			}
		}
		if !ok {
			return false
		}
		i = skipSpace(data, i)
		if i >= len(data) {
			return false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return finish(data, i+1, tl != nil)
		default:
			return false
		}
	}
}

// finish applies the after-the-object rule: a task line allows only
// whitespace; a request body's trailing bytes are never read.
func finish(data []byte, i int, task bool) bool {
	return !task || skipSpace(data, i) == len(data)
}

// fieldBit maps an exact lowercase key to its field bit, or 0.
func fieldBit(key []byte, task bool) int {
	switch string(key) {
	case "html":
		return fieldHTML
	case "xml":
		return fieldXML
	case "ontology":
		return fieldOntology
	case "separator_list":
		return fieldSeparatorList
	}
	if task {
		switch string(key) {
		case "id":
			return fieldID
		case "shard":
			return fieldShard
		}
	}
	return 0
}

func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// stringArray decodes a JSON array of strings at data[i]. An empty array
// decodes to an empty, non-nil slice, as encoding/json does.
func stringArray(data []byte, i int, scratch *[]byte) ([]string, int, bool) {
	if i >= len(data) || data[i] != '[' {
		return nil, i, false
	}
	i = skipSpace(data, i+1)
	out := []string{}
	if i < len(data) && data[i] == ']' {
		return out, i + 1, true
	}
	for {
		s, j, ok := stringValue(data, i, scratch)
		if !ok {
			return nil, j, false
		}
		out = append(out, s)
		i = skipSpace(data, j)
		if i >= len(data) {
			return nil, i, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return out, i + 1, true
		default:
			return nil, i, false
		}
	}
}

// plain marks the string bytes that need no attention: everything but the
// quote, the backslash, control bytes and non-ASCII bytes.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// hexVal maps a hex digit to its value and any other byte to -1.
var hexVal = func() (t [256]int8) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = int8(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = int8(c - 'a' + 10)
		case 'A' <= c && c <= 'F':
			t[c] = int8(c - 'A' + 10)
		default:
			t[c] = -1
		}
	}
	return t
}()

// simpleEscape maps the byte after a backslash to what it stands for, or 0
// when it is not a one-byte escape.
var simpleEscape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// stringValue decodes the JSON string at data[i] in one pass and returns
// the index just past its closing quote. A string without escapes is
// copied straight out of data; an escaped one is unescaped into scratch and
// then copied, so either way the result is one allocation of exactly its
// length. Surrogate \u escapes, whose pairing and replacement rules
// encoding/json owns, are reported as not ok, as is invalid UTF-8.
func stringValue(data []byte, i int, scratch *[]byte) (string, int, bool) {
	if i >= len(data) || data[i] != '"' {
		return "", i, false
	}
	start := i + 1
	run := start // first byte not yet copied to out
	out := (*scratch)[:0]
	escaped := false
	j := start
	for {
		for j < len(data) && plain[data[j]] {
			j++
		}
		if j >= len(data) {
			return "", j, false
		}
		switch c := data[j]; {
		case c == '"':
			if !escaped {
				return string(data[start:j]), j + 1, true
			}
			out = append(out, data[run:j]...)
			*scratch = out
			return string(out), j + 1, true
		case c == '\\':
			if j+1 >= len(data) {
				return "", j, false
			}
			out = append(out, data[run:j]...)
			escaped = true
			if e := simpleEscape[data[j+1]]; e != 0 {
				out = append(out, e)
				j += 2
			} else {
				if data[j+1] != 'u' || j+6 > len(data) {
					return "", j, false
				}
				h0, h1, h2, h3 := hexVal[data[j+2]], hexVal[data[j+3]], hexVal[data[j+4]], hexVal[data[j+5]]
				if h0|h1|h2|h3 < 0 {
					return "", j, false
				}
				r := rune(h0)<<12 | rune(h1)<<8 | rune(h2)<<4 | rune(h3)
				if utf16.IsSurrogate(r) {
					return "", j, false
				}
				out = utf8.AppendRune(out, r)
				j += 6
			}
			run = j
		case c < 0x20:
			return "", j, false
		default:
			r, size := utf8.DecodeRune(data[j:])
			if r == utf8.RuneError && size <= 1 {
				return "", j, false
			}
			j += size
		}
	}
}
