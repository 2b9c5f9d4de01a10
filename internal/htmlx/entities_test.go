package htmlx

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDecodeEntitiesBasics(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"plain text", "plain text"},
		{"a &amp; b", "a & b"},
		{"&lt;div&gt;", "<div>"},
		{"&quot;hi&quot;", `"hi"`},
		{"&apos;", "'"},
		{"&#65;", "A"},
		{"&#x41;", "A"},
		{"&#X41;", "A"},
		{"&copy; 2012", "© 2012"},
		{"&nbsp;", " "},
		{"caf&eacute;", "café"},
		{"&amp;amp;", "&amp;"}, // decode once, not recursively
	}
	for _, c := range cases {
		if got := DecodeEntities(c.in); got != c.want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDecodeEntitiesMalformed(t *testing.T) {
	// Malformed references pass through untouched.
	cases := []string{
		"&", "&;", "&amp", "& amp;", "&bogusref;", "&#;", "&#x;",
		"&#xZZ;", "&#-5;", "&#99999999999;", "100 & 200", "a&b",
	}
	for _, c := range cases {
		if got := DecodeEntities(c); got != c {
			t.Errorf("DecodeEntities(%q) = %q, want unchanged", c, got)
		}
	}
}

func TestDecodeEntitiesMixed(t *testing.T) {
	in := "Tom &amp; Jerry &bogus; &#62; &lt;end"
	want := "Tom & Jerry &bogus; > <end"
	if got := DecodeEntities(in); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestEscapeText(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"a & b", "a &amp; b"},
		{"<script>", "&lt;script&gt;"},
		{`"quoted"`, "&quot;quoted&quot;"},
		{"it's", "it&#39;s"},
		{"", ""},
		{"&start", "&amp;start"},
		{"end>", "end&gt;"},
		{"<>", "&lt;&gt;"},
		{"a<<b", "a&lt;&lt;b"},
		{`&<>"'`, "&amp;&lt;&gt;&quot;&#39;"},
		{"<café 世界>", "&lt;café 世界&gt;"},
		{"x&é—ü'y", "x&amp;é—ü&#39;y"},
	}
	for _, c := range cases {
		if got := EscapeText(c.in); got != c.want {
			t.Errorf("EscapeText(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEscapeDecodeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		return DecodeEntities(EscapeText(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeEntitiesNoAllocationForPlain(t *testing.T) {
	in := "just a plain sentence with no references at all"
	if got := DecodeEntities(in); got != in {
		t.Errorf("plain text altered: %q", got)
	}
	allocs := testing.AllocsPerRun(100, func() { DecodeEntities(in) })
	if allocs > 0 {
		t.Errorf("DecodeEntities allocates %v times on plain text", allocs)
	}
}

// DecodeEntities replaces HTML character references in s with their
// literal characters. Numeric references (&#123; and &#x1F;) and the
// common named references are decoded; malformed or unknown references
// are left untouched. The function allocates only when s contains '&'.
// It is the string form of AppendDecoded, which production decodes
// with, kept as the tests' reference.
//
//repro:noalloc
func DecodeEntities(s string) string {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	b.WriteString(s[:amp])
	i := amp
	for i < len(s) {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		r, width, ok := decodeOneEntity(s[i:])
		if !ok {
			b.WriteByte('&')
			i++
			continue
		}
		b.WriteRune(r)
		i += width
	}
	return b.String()
}
