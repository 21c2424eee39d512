package enrich

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// ProfileMonoids selects, in ParseSet syntax, the monoids a profile
// renders from: counts for the kinds, presence, booleans, string
// lengths and means, ranges for the number bounds, lengths for the
// array bounds.
const ProfileMonoids = "counts,ranges,lengths"

// profileView holds the state indexes a profile reads at every node.
type profileView struct{ counts, ranges, lengths int }

func (l *Lattice) profileView() (profileView, error) {
	v := profileView{l.set.index("counts"), l.set.index("ranges"), l.set.index("lengths")}
	if v.counts < 0 || v.ranges < 0 || v.lengths < 0 {
		return v, fmt.Errorf("enrich: a profile needs the %s monoids, the lattice has %s",
			ProfileMonoids, strings.Join(l.set.Names(), ","))
	}
	return v, nil
}

// CheckProfile reports whether the lattice carries every monoid of
// ProfileMonoids, so RenderProfile and Values can read it.
func (l *Lattice) CheckProfile() error {
	_, err := l.profileView()
	return err
}

// Values returns the number of top-level values the lattice observed;
// zero unless it carries the counts monoid.
func (l *Lattice) Values() int64 {
	i := l.set.index("counts")
	if i < 0 {
		return 0
	}
	return l.root.states[i].(*counts).total()
}

// RenderProfile prints the lattice as an annotated, indented schema:
// each position shows its kinds with their share when mixed, record
// fields with their presence when optional, and the value aggregates,
// e.g.
//
//	profile of 2 values
//	{
//	  "id": Num ⟨1..9, mean 5⟩
//	  "name"? ⟨50%⟩: Str ⟨len 2..2⟩
//	  "tags"? ⟨50%⟩: [ ⟨1..1 items⟩ Str ⟨len 1..1⟩*]
//	}
//
// The lattice must carry ProfileMonoids.
func (l *Lattice) RenderProfile() (string, error) {
	v, err := l.profileView()
	if err != nil {
		return "", err
	}
	total := l.Values()
	if total == 0 {
		return "ε (empty profile)\n", nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile of %d values\n", total)
	v.node(&sb, l.root, 0)
	sb.WriteByte('\n')
	return sb.String(), nil
}

// node writes the union of the kinds observed at n.
func (v profileView) node(sb *strings.Builder, n *node, level int) {
	c := n.states[v.counts].(*counts)
	sep := ""
	// kind opens one alternative: its name, and its share when mixed.
	kind := func(name string, count int64) bool {
		if count == 0 {
			return false
		}
		sb.WriteString(sep)
		sep = " + "
		sb.WriteString(name)
		if total := c.total(); count != total {
			fmt.Fprintf(sb, " ⟨%.0f%%⟩", 100*float64(count)/float64(total))
		}
		return true
	}
	kind("Null", c.Nulls)
	if kind("Bool", c.Bools) {
		fmt.Fprintf(sb, " ⟨%.0f%% true⟩", 100*float64(c.Trues)/float64(c.Bools))
	}
	if kind("Num", c.Nums) {
		r := n.states[v.ranges].(*ranges)
		fmt.Fprintf(sb, " ⟨%s..%s, mean %s⟩", trimFloat(r.Min), trimFloat(r.Max), trimFloat(c.mean()))
	}
	if kind("Str", c.Strs) {
		fmt.Fprintf(sb, " ⟨len %d..%d⟩", c.StrMin, c.StrMax)
	}
	if len(n.fields) == 0 {
		kind("{}", c.Objects)
	} else if kind("{", c.Objects) {
		sb.WriteByte('\n')
		keys := make([]string, 0, len(n.fields))
		for k := range n.fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			child := n.fields[key]
			pad(sb, level+1)
			sb.Write(value.AppendQuoted(nil, key))
			if present := child.states[v.counts].(*counts).total(); present < c.Objects {
				fmt.Fprintf(sb, "? ⟨%.0f%%⟩", 100*float64(present)/float64(c.Objects))
			}
			sb.WriteString(": ")
			v.node(sb, child, level+1)
			sb.WriteByte('\n')
		}
		pad(sb, level)
		sb.WriteByte('}')
	}
	if kind("[", c.Arrays) {
		ln := n.states[v.lengths].(*lengths)
		fmt.Fprintf(sb, " ⟨%d..%d items⟩ ", ln.Min, ln.Max)
		if n.elem != nil && n.elem.states[v.counts].(*counts).total() > 0 {
			v.node(sb, n.elem, level)
		} else {
			sb.WriteString("ε")
		}
		sb.WriteString("*]")
	}
}

func pad(sb *strings.Builder, level int) {
	for i := 0; i < level; i++ {
		sb.WriteString("  ")
	}
}

// trimFloat prints f with two decimals, trailing zeros dropped.
func trimFloat(f float64) string {
	s := strings.TrimRight(fmt.Sprintf("%.2f", f), "0")
	return strings.TrimRight(s, ".")
}
