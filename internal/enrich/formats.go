package enrich

import (
	"encoding/json"
	"net/url"
	"strings"
	"time"
)

// formatNames lists the detected string formats in priority order:
// each observed string is counted under the FIRST format it matches
// (date-time before date matters: an RFC 3339 timestamp starts with a
// full date). The names are JSON Schema `format` keyword values.
var formatNames = []string{"date-time", "date", "uuid", "uri", "email"}

// formats counts, per path, how many strings match each well-known
// format. Counter addition is the monoid; the `format` annotation is
// asserted only when every observed string matched one single format.
type formats struct {
	Total  int64   `json:"total"`
	Counts []int64 `json:"counts"` // parallel to formatNames
}

func newFormats() Monoid {
	return &formats{Counts: make([]int64, len(formatNames))}
}

func unmarshalFormats(data []byte) (Monoid, error) {
	f := &formats{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, err
	}
	// Tolerate catalogues of other sizes defensively: realign onto the
	// current one (extra counts cannot be attributed and are dropped).
	if len(f.Counts) != len(formatNames) {
		counts := make([]int64, len(formatNames))
		copy(counts, f.Counts)
		f.Counts = counts
	}
	return f, nil
}

func (f *formats) Null()        {}
func (f *formats) Bool(bool)    {}
func (f *formats) Num(float64)  {}
func (f *formats) Object()      {}
func (f *formats) ArrayLen(int) {}

func (f *formats) Str(s string) {
	f.Total++
	if i := detectFormat(s); i >= 0 {
		f.Counts[i]++
	}
}

func (f *formats) Empty() bool { return f.Total == 0 }

func (f *formats) Clone() Monoid {
	c := &formats{Total: f.Total}
	c.Counts = append([]int64(nil), f.Counts...)
	return c
}

func (f *formats) Merge(other Monoid) {
	o := other.(*formats)
	f.Total += o.Total
	for i, n := range o.Counts {
		f.Counts[i] += n
	}
}

func (f *formats) Fold() map[string]any {
	if f.Total == 0 {
		return nil
	}
	counts := make(map[string]any)
	matched := -1
	single := true
	for i, n := range f.Counts {
		if n == 0 {
			continue
		}
		counts[formatNames[i]] = n
		if matched >= 0 {
			single = false
		}
		matched = i
	}
	if len(counts) == 0 {
		return nil
	}
	out := map[string]any{"x-stringFormats": counts}
	// Assert the format keyword only on unanimous evidence: one format,
	// matched by every observed string.
	if single && f.Counts[matched] == f.Total {
		out["format"] = formatNames[matched]
	}
	return out
}

func (f *formats) MarshalState() ([]byte, error) { return json.Marshal(f) }

// detectFormat returns the index into formatNames of the first format
// s matches, or -1. Detection is strict where cheap (real calendar
// validation for dates via time.Parse) and conservative where a full
// grammar would be disproportionate (email).
func detectFormat(s string) int {
	for i, name := range formatNames {
		var ok bool
		switch name {
		case "date-time":
			ok = isDateTime(s)
		case "date":
			ok = isDate(s)
		case "uuid":
			ok = isUUID(s)
		case "uri":
			ok = isURI(s)
		case "email":
			ok = isEmail(s)
		}
		if ok {
			return i
		}
	}
	return -1
}

// isDate matches full-date of RFC 3339 (YYYY-MM-DD), calendar-valid.
func isDate(s string) bool {
	if len(s) != 10 {
		return false
	}
	_, err := time.Parse("2006-01-02", s)
	return err == nil
}

// isDateTime matches date-time of RFC 3339.
func isDateTime(s string) bool {
	if len(s) < len("2006-01-02T15:04:05Z") {
		return false
	}
	_, err := time.Parse(time.RFC3339, s)
	return err == nil
}

// isUUID matches the 8-4-4-4-12 hexadecimal form, any case.
func isUUID(s string) bool {
	if len(s) != 36 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch i {
		case 8, 13, 18, 23:
			if c != '-' {
				return false
			}
		default:
			if !isHex(c) {
				return false
			}
		}
	}
	return true
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// isURI matches absolute http(s) URLs with a host — the kind that
// shows up in data feeds — not the full RFC 3986 grammar.
func isURI(s string) bool {
	if !strings.HasPrefix(s, "http://") && !strings.HasPrefix(s, "https://") {
		return false
	}
	u, err := url.Parse(s)
	return err == nil && u.Host != ""
}

// isEmail is the conservative local@domain.tld shape check: exactly
// one '@', non-empty local part, a dot inside the domain, no spaces.
func isEmail(s string) bool {
	at := strings.IndexByte(s, '@')
	if at <= 0 || at != strings.LastIndexByte(s, '@') {
		return false
	}
	local, domain := s[:at], s[at+1:]
	if local == "" || domain == "" || strings.ContainsAny(s, " \t") {
		return false
	}
	dot := strings.IndexByte(domain, '.')
	return dot > 0 && dot < len(domain)-1 && !strings.HasPrefix(domain, ".")
}
