package htmlx

import "bytes"

// One-shot forms of the package's streaming primitives. The extraction
// pipeline only streams (Streamer, WriteEscaped); these convenience
// wrappers serve the tests.

// Stream is the convenience form of Streamer.Stream for one-off use.
func Stream(src []byte, onText, onAnchor func([]byte)) {
	var st Streamer
	st.Stream(src, onText, onAnchor)
}

// EscapeText escapes the five significant HTML characters in s, with
// WriteEscaped's rules.
func EscapeText(s string) string {
	var b bytes.Buffer
	WriteEscaped(&b, s)
	return b.String()
}
