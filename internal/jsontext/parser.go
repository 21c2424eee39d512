package jsontext

import (
	"io"

	"repro/internal/value"
)

// DefaultMaxDepth bounds nesting to protect against depth bombs; it is
// far above anything in the paper's datasets (max nesting 7).
const DefaultMaxDepth = 512

// Options configure parsing.
type Options struct {
	// MaxDepth bounds the nesting depth of parsed values; zero means
	// DefaultMaxDepth.
	MaxDepth int
}

func (o Options) maxDepth() int {
	if o.MaxDepth <= 0 {
		return DefaultMaxDepth
	}
	return o.MaxDepth
}

// Parser builds value.Value trees from a token stream.
type Parser struct {
	lex  *Lexer
	opts Options
	// keys holds one key set per nesting depth, reused by every object
	// at that depth.
	keys []*KeySet
}

// NewParser returns a parser reading one or more whitespace-separated
// JSON values from r.
func NewParser(r io.Reader, opts Options) *Parser {
	return &Parser{lex: NewLexer(r), opts: opts}
}

// ParseBytes parses a single JSON value from data, requiring that
// nothing but whitespace follows it. It lexes data directly through a
// pooled lexer.
func ParseBytes(data []byte) (value.Value, error) {
	p := &Parser{lex: AcquireLexerBytes(data)}
	defer p.lex.Release()
	v, err := p.Next()
	if err != nil {
		return nil, err
	}
	if _, err := p.Next(); err != io.EOF {
		return nil, &SyntaxError{Offset: p.lex.Offset(), Msg: "trailing data after JSON value"}
	}
	return v, nil
}

// Next parses the next top-level value from the stream. It returns
// io.EOF when the input is exhausted. This accepts both NDJSON
// (newline-delimited) and whitespace-concatenated JSON values.
func (p *Parser) Next() (value.Value, error) {
	tok, err := p.lex.Next()
	if err != nil {
		return nil, err
	}
	if tok.Kind == TokEOF {
		return nil, io.EOF
	}
	return p.parseValue(tok, 0)
}

// Offset returns the number of input bytes consumed so far.
func (p *Parser) Offset() int64 { return p.lex.Offset() }

func (p *Parser) parseValue(tok Token, depth int) (value.Value, error) {
	if depth > p.opts.maxDepth() {
		return nil, p.lex.errorf(tok.Offset, "nesting deeper than %d", p.opts.maxDepth())
	}
	switch tok.Kind {
	case TokNull:
		return value.Null{}, nil
	case TokTrue:
		return value.Bool(true), nil
	case TokFalse:
		return value.Bool(false), nil
	case TokNum:
		return value.Num(tok.Num), nil
	case TokStr:
		return value.Str(tok.Str), nil
	case TokBeginObject:
		return p.parseObject(depth)
	case TokBeginArray:
		return p.parseArray(depth)
	default:
		return nil, p.lex.errorf(tok.Offset, "unexpected %s", tok.Kind)
	}
}

func (p *Parser) parseObject(depth int) (value.Value, error) {
	for len(p.keys) <= depth {
		p.keys = append(p.keys, new(KeySet))
	}
	keys := p.keys[depth]
	keys.Reset()
	var fields []value.Field
	for {
		kb, off, ok, err := p.lex.NextKey(len(fields) > 0)
		if !ok {
			if err != nil {
				return nil, err
			}
			return value.NewRecord(fields...)
		}
		key := p.lex.internString(kb)
		if keys.Add(key) {
			return nil, p.lex.errorf(off, "duplicate object key %q", key)
		}
		if err != nil { // the ':' after the key
			return nil, err
		}
		tok, err := p.lex.Next()
		if err != nil {
			return nil, err
		}
		v, err := p.parseValue(tok, depth+1)
		if err != nil {
			return nil, err
		}
		fields = append(fields, value.Field{Key: key, Value: v})
	}
}

func (p *Parser) parseArray(depth int) (value.Value, error) {
	elems := value.Array{}
	for {
		ok, err := p.lex.NextElem(len(elems))
		if err != nil {
			return nil, err
		}
		if !ok {
			return elems, nil
		}
		tok, err := p.lex.Next()
		if err != nil {
			return nil, err
		}
		v, err := p.parseValue(tok, depth+1)
		if err != nil {
			return nil, err
		}
		elems = append(elems, v)
	}
}
