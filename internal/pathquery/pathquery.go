// Package pathquery implements the query-optimization applications the
// paper motivates in Section 1: because the inferred schema is a
// *global* description — "each path that can be traversed in the
// tree-structure of each input JSON value can be traversed in the
// inferred schema as well" — path expressions can be analyzed against
// the schema at compile time:
//
//   - wildcard expansion ([16] in the paper): $.user.* expands to the
//     concrete key paths the data can actually contain;
//   - static typing of a path: the type of every value the path can
//     select, and whether the path can miss (optional steps);
//   - projection ([9] in the paper): given the paths a query needs,
//     build a mask that loads only those fragments of each record,
//     which is how "main-memory tools" can avoid materializing unused
//     data.
//
// The path language is a small JSONPath-like core:
//
//	$            the root
//	.key         record field access (quote with ["key"] for any key)
//	.*           any record field (wildcard)
//	[*]          any array element
//
// Paths are purely structural, matching the schema's nature.
package pathquery

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/jsontext"
	"repro/internal/types"
	"repro/internal/value"
)

// Step is one path component.
type Step struct {
	// Kind discriminates the step.
	Kind StepKind
	// Key is the field name for StepField.
	Key string
}

// StepKind enumerates path step kinds.
type StepKind int

// Step kinds.
const (
	// StepField selects a named record field.
	StepField StepKind = iota
	// StepAnyField selects every record field (the .* wildcard).
	StepAnyField
	// StepElem selects every array element (the [*] wildcard).
	StepElem
)

// Path is a parsed path expression.
type Path struct {
	steps []Step
}

// Steps returns the path's components. The returned slice must not be
// modified.
func (p Path) Steps() []Step { return p.steps }

// String renders the path in the input syntax.
func (p Path) String() string {
	var sb strings.Builder
	sb.WriteByte('$')
	for _, s := range p.steps {
		switch s.Kind {
		case StepField:
			if isBareField(s.Key) {
				sb.WriteByte('.')
				sb.WriteString(s.Key)
			} else {
				sb.WriteString("[")
				sb.Write(value.AppendQuoted(nil, s.Key))
				sb.WriteString("]")
			}
		case StepAnyField:
			sb.WriteString(".*")
		case StepElem:
			sb.WriteString("[*]")
		}
	}
	return sb.String()
}

func isBareField(key string) bool {
	if key == "" {
		return false
	}
	for i, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9' || r == '-':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Parse parses a path expression.
func Parse(src string) (Path, error) {
	s := strings.TrimSpace(src)
	if s == "" || s[0] != '$' {
		return Path{}, fmt.Errorf("pathquery: path must start with '$': %q", src)
	}
	s = s[1:]
	var steps []Step
	for len(s) > 0 {
		switch {
		case strings.HasPrefix(s, ".*"):
			steps = append(steps, Step{Kind: StepAnyField})
			s = s[2:]
		case strings.HasPrefix(s, "[*]"):
			steps = append(steps, Step{Kind: StepElem})
			s = s[3:]
		case strings.HasPrefix(s, `["`):
			key, n, err := jsontext.UnquotePrefix([]byte(s[1:]))
			if err != nil {
				return Path{}, fmt.Errorf("pathquery: bad quoted key in %q: %v", src, err)
			}
			s = s[1+n:]
			if !strings.HasPrefix(s, "]") {
				return Path{}, fmt.Errorf("pathquery: missing ']' after quoted key in %q", src)
			}
			s = s[1:]
			steps = append(steps, Step{Kind: StepField, Key: key})
		case s[0] == '.':
			s = s[1:]
			i := 0
			for i < len(s) && s[i] != '.' && s[i] != '[' {
				i++
			}
			key := s[:i]
			if key == "" {
				return Path{}, fmt.Errorf("pathquery: empty field name in %q", src)
			}
			steps = append(steps, Step{Kind: StepField, Key: key})
			s = s[i:]
		default:
			return Path{}, fmt.Errorf("pathquery: unexpected %q in %q", s[:1], src)
		}
	}
	return Path{steps: steps}, nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(src string) Path {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Match is one concrete path through a schema: the expansion of a
// (possibly wildcarded) path expression.
type Match struct {
	// Path is the concrete path, with wildcard field steps replaced by
	// the actual keys.
	Path Path
	// Type is the type of the values the path selects.
	Type types.Type
	// CanMiss reports whether the path can be absent in a conforming
	// value (an optional field, an array that may be too short, or a
	// union alternative that may not be taken).
	CanMiss bool
}

// Expand resolves the path expression against a schema: every wildcard
// is expanded to the concrete keys the schema allows, and each resulting
// concrete path is typed. An empty result means the path cannot match
// any conforming value — statically detecting the "unexpected or
// unwanted behaviors" the paper's introduction warns about.
func Expand(schema types.Type, p Path) []Match {
	matches := expand(schema, p.steps, nil, false)
	sort.Slice(matches, func(i, j int) bool { return matches[i].Path.String() < matches[j].Path.String() })
	return matches
}

func expand(t types.Type, steps []Step, prefix []Step, canMiss bool) []Match {
	if len(steps) == 0 {
		return []Match{{Path: Path{steps: append([]Step(nil), prefix...)}, Type: t, CanMiss: canMiss}}
	}
	step := steps[0]
	var out []Match
	alts := types.Addends(t)
	for _, alt := range alts {
		// Taking a specific union alternative can miss when there are
		// others.
		branchMiss := canMiss || len(alts) > 1
		switch at := alt.(type) {
		case *types.Record:
			if step.Kind == StepElem {
				continue
			}
			for _, f := range at.Fields() {
				if step.Kind == StepField && f.Key != step.Key {
					continue
				}
				childPrefix := append(prefix, Step{Kind: StepField, Key: f.Key})
				out = append(out, expand(f.Type, steps[1:], childPrefix, branchMiss || f.Optional)...)
			}
		case *types.Tuple:
			if step.Kind != StepElem || at.Len() == 0 {
				continue
			}
			// All positions share the [*] path; their types merge.
			u, err := types.NewUnion(at.Elems()...)
			if err != nil {
				continue
			}
			childPrefix := append(prefix, Step{Kind: StepElem})
			out = append(out, expand(u, steps[1:], childPrefix, branchMiss)...)
		case *types.Map:
			if step.Kind == StepElem {
				continue
			}
			// Any key may or may not be present in an abstracted record.
			childPrefix := prefix
			if step.Kind == StepField {
				childPrefix = append(childPrefix, Step{Kind: StepField, Key: step.Key})
			} else {
				childPrefix = append(childPrefix, Step{Kind: StepAnyField})
			}
			out = append(out, expand(at.Elem(), steps[1:], childPrefix, true)...)
		case *types.Repeated:
			if step.Kind != StepElem {
				continue
			}
			childPrefix := append(prefix, Step{Kind: StepElem})
			// A repeated array can be empty, so the element path can
			// always miss.
			out = append(out, expand(at.Elem(), steps[1:], childPrefix, true)...)
		}
	}
	return dedupe(out)
}

// dedupe merges matches that share a concrete path (e.g. from different
// union alternatives), unioning their types; a path that can miss in any
// branch can miss overall.
func dedupe(ms []Match) []Match {
	byPath := map[string]int{}
	var out []Match
	for _, m := range ms {
		key := m.Path.String()
		if i, ok := byPath[key]; ok {
			u, err := types.NewUnion(out[i].Type, m.Type)
			if err == nil {
				out[i].Type = u
			}
			out[i].CanMiss = out[i].CanMiss || m.CanMiss
			continue
		}
		byPath[key] = len(out)
		out = append(out, m)
	}
	return out
}
