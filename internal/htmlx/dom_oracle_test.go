package htmlx

// The retained DOM: the oracle FuzzStreamVsParse holds Streamer to.

import "strings"

// NodeType identifies the kind of a DOM node.
type NodeType int

// Node kinds.
const (
	ElementNode NodeType = iota
	TextNode
	DocumentNode
)

// Node is one node of the lightweight DOM produced by Parse.
type Node struct {
	Type     NodeType
	Data     string // tag name (elements) or text content (text nodes)
	Attrs    []Attr
	Parent   *Node
	Children []*Node
}

// Attr returns the value of the named attribute on an element node.
func (n *Node) Attr(key string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// Parse builds a DOM tree from src. Parsing is forgiving: unmatched end
// tags are ignored, unclosed elements are closed at end of input, and
// misnested tags close intervening elements (the common-case recovery).
// The returned node is a DocumentNode.
func Parse(src []byte) *Node {
	doc := &Node{Type: DocumentNode}
	stack := []*Node{doc}
	z := NewTokenizer(src)
	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		top := stack[len(stack)-1]
		switch tok.Type {
		case TextToken:
			if tok.Data == "" {
				continue
			}
			top.Children = append(top.Children, &Node{
				Type: TextNode, Data: tok.Data, Parent: top,
			})
		case StartTagToken:
			el := &Node{Type: ElementNode, Data: tok.Data, Attrs: tok.Attrs, Parent: top}
			top.Children = append(top.Children, el)
			stack = append(stack, el)
		case SelfClosingToken:
			top.Children = append(top.Children, &Node{
				Type: ElementNode, Data: tok.Data, Attrs: tok.Attrs, Parent: top,
			})
		case EndTagToken:
			// Pop to the matching open element if one exists.
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Data == tok.Data {
					stack = stack[:i]
					break
				}
			}
		case CommentToken, DoctypeToken:
			// dropped
		}
	}
	return doc
}

// Text returns the concatenated text content of the subtree rooted at n,
// with runs of whitespace collapsed to single spaces. Script and style
// content is excluded: it is markup plumbing, not page text.
func (n *Node) Text() string {
	var b strings.Builder
	var walk func(*Node)
	walk = func(node *Node) {
		if node.Type == TextNode {
			b.WriteString(node.Data)
			b.WriteByte(' ')
			return
		}
		if node.Type == ElementNode && rawTextElements[node.Data] {
			return
		}
		for _, c := range node.Children {
			walk(c)
		}
	}
	walk(n)
	return strings.Join(strings.Fields(b.String()), " ")
}

// Find returns all element nodes with the given tag name in the subtree
// rooted at n, in document order.
func (n *Node) Find(tag string) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(node *Node) {
		if node.Type == ElementNode && node.Data == tag {
			out = append(out, node)
		}
		for _, c := range node.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// FindFirst returns the first element with the given tag name, or nil.
func (n *Node) FindFirst(tag string) *Node {
	var found *Node
	var walk func(*Node) bool
	walk = func(node *Node) bool {
		if node.Type == ElementNode && node.Data == tag {
			found = node
			return true
		}
		for _, c := range node.Children {
			if walk(c) {
				return true
			}
		}
		return false
	}
	walk(n)
	return found
}

// Anchors returns the href value of every <a> element that has a
// non-empty href, in document order. This is the homepage-extraction
// entry point: "we looked at the content of href tags of all anchor
// nodes in pages" (§3.2).
func (n *Node) Anchors() []string {
	var out []string
	for _, a := range n.Find("a") {
		if href, ok := a.Attr("href"); ok && strings.TrimSpace(href) != "" {
			out = append(out, strings.TrimSpace(href))
		}
	}
	return out
}

// AttrValues returns the value of the named attribute on every element
// with the given tag, skipping elements that lack it.
func (n *Node) AttrValues(tag, key string) []string {
	var out []string
	for _, el := range n.Find(tag) {
		if v, ok := el.Attr(key); ok {
			out = append(out, v)
		}
	}
	return out
}
