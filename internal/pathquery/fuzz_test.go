package pathquery

import (
	"slices"
	"testing"
	"unicode/utf8"
)

// FuzzPathRoundTrip checks the path syntax both ways: any key survives
// Path.String then Parse unchanged, and any path Parse accepts renders
// to a string that parses back to the same path.
func FuzzPathRoundTrip(f *testing.F) {
	for _, s := range []string{
		"$", "$.a.b", "$.*", "$[*]", "$.items[*].id", `$["with space"]`,
		`$["a.b"]`, `$["q\"\\\/\b\f\n\r\t\u0001"]`, `$["😀"]`,
		`$["unterminated`, `$["a"x]`, "$..a", "$.a]", "plain key", "ctl\r\x01",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Keys come from decoded JSON, which is valid UTF-8; String
		// renders an invalid byte as U+FFFD, so only valid keys can
		// come back unchanged.
		if !utf8.ValidString(src) {
			return
		}
		key := Path{steps: []Step{{Kind: StepField, Key: src}}}
		back, err := Parse(key.String())
		if err != nil {
			t.Fatalf("key %q renders as %q, which does not parse: %v", src, key.String(), err)
		}
		if !slices.Equal(back.Steps(), key.Steps()) {
			t.Fatalf("key %q came back as %v", src, back.Steps())
		}

		p, err := Parse(src)
		if err != nil {
			return
		}
		rendered := p.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q as %q, which does not re-parse: %v", src, rendered, err)
		}
		if !slices.Equal(again.Steps(), p.Steps()) {
			t.Fatalf("round trip changed %q: %v vs %v", src, p.Steps(), again.Steps())
		}
	})
}
