package infer

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/jsontext"
	"repro/internal/types"
)

// eventLog records every Observer event as text.
type eventLog struct{ strings.Builder }

func (l *eventLog) Null()          { l.WriteString("null ") }
func (l *eventLog) Bool(b bool)    { fmt.Fprintf(l, "%v ", b) }
func (l *eventLog) Num(f float64)  { fmt.Fprintf(l, "%v ", f) }
func (l *eventLog) Str(s string)   { fmt.Fprintf(l, "%q ", s) }
func (l *eventLog) BeginObject()   { l.WriteString("{ ") }
func (l *eventLog) Key(k string)   { fmt.Fprintf(l, "%q: ", k) }
func (l *eventLog) EndObject()     { l.WriteString("} ") }
func (l *eventLog) BeginArray()    { l.WriteString("[ ") }
func (l *eventLog) EndArray(n int) { fmt.Fprintf(l, "]%d ", n) }

// decodeAll runs d to the end of its input and renders the types, the
// observed events and the final offset.
func decodeAll(t *testing.T, d *Decoder) string {
	t.Helper()
	defer d.Release()
	var log eventLog
	d.SetObserver(&log)
	d.SetPromoter(fusion.Options{Tagged: true}.Promoter())
	var ts []types.Type
	for {
		tt, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, tt)
	}
	return fmt.Sprintf("%v\n%s\n%d", ts, log.String(), d.Offset())
}

// shortReader returns at most three bytes per Read, so the lexer
// refills its window, and overwrites the front of it, every few bytes.
type shortReader struct{ r io.Reader }

func (s shortReader) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), 3)]) }

// TestReaderDecoderMatchesBytes: the decoder reads keys, tags and
// observed strings from Token.Bytes, which a reader refill may move, so
// a decoder over a one-byte-at-a-time reader (a refill per byte), or
// over three-byte reads, must infer, promote and observe exactly what
// the slice decoder does.
func TestReaderDecoderMatchesBytes(t *testing.T) {
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 80, 13)
		want := decodeAll(t, NewBytesDecoder(data, jsontext.Options{}))
		for _, r := range []io.Reader{iotest.OneByteReader(bytes.NewReader(data)), shortReader{bytes.NewReader(data)}} {
			if got := decodeAll(t, NewDecoder(r, jsontext.Options{})); got != want {
				t.Errorf("%s: decoder over %T differs from bytes decoder", name, r)
			}
		}
	}
}
