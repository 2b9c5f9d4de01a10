package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The directive grammar. Every contract comment starts with "//repro:"
// (no space — the Go directive convention, so gofmt leaves them alone
// and they never render as doc text).
//
//	//repro:noalloc                — on a function's doc comment: the body
//	                                 must pass the noalloc analyzer.
//	//repro:alloc-ok <why>         — line hatch for noalloc findings.
//	//repro:nondeterm-ok <why>     — line hatch for determinism findings.
//	//repro:obs-ok <why>           — line hatch for obsbatch findings.
//	//repro:testonly-ok <why>      — hatch for a testonly finding, on the
//	                                 line above the func: names the
//	                                 caller outside production code.
//
// A hatch suppresses findings on its own line and on the line directly
// below it (so it can ride at end-of-line or stand alone above the
// flagged statement). Hatches require a non-empty justification.
const directivePrefix = "//repro:"

// Known directive verbs.
const (
	dirNoalloc     = "noalloc"
	dirAllocOK     = "alloc-ok"
	dirNondetermOK = "nondeterm-ok"
	dirObsOK       = "obs-ok"
	dirTestonlyOK  = "testonly-ok"
)

// A hatch is one parsed escape-hatch comment.
type hatch struct {
	verb   string
	reason string
	pos    token.Pos
	line   int
	file   string
}

// Directives is the parsed `//repro:` surface of one package.
type Directives struct {
	fset *token.FileSet

	// NoallocFuncs maps annotated function declarations (in non-test
	// files) to the directive comment position.
	NoallocFuncs map[*ast.FuncDecl]token.Pos

	// hatches indexes escape hatches by file and line.
	hatches map[string]map[int][]*hatch

	// errs are directive-misuse findings reported by the directive
	// analyzer: unknown verbs, misplaced noalloc, missing justification.
	errs []Diagnostic
}

// ParseDirectives scans every comment in files for the //repro:
// directive surface.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{
		fset:         fset,
		NoallocFuncs: make(map[*ast.FuncDecl]token.Pos),
		hatches:      make(map[string]map[int][]*hatch),
	}
	for _, f := range files {
		if isTestFile(fset, f) {
			continue
		}
		// Comments attached as function docs, so misplaced noalloc
		// directives can be told apart from attached ones.
		attached := make(map[*ast.Comment]*ast.FuncDecl)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					attached[c] = fd
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d.parseComment(c, attached)
			}
		}
	}
	return d
}

func (d *Directives) parseComment(c *ast.Comment, attached map[*ast.Comment]*ast.FuncDecl) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return
	}
	rest := c.Text[len(directivePrefix):]
	verb, reason, _ := strings.Cut(rest, " ")
	reason = strings.TrimSpace(reason)
	switch verb {
	case dirNoalloc:
		if fd, ok := attached[c]; ok {
			d.NoallocFuncs[fd] = c.Pos()
		} else {
			d.errs = append(d.errs, Diagnostic{
				Pos:      c.Pos(),
				Analyzer: DirectiveAnalyzer.Name,
				Message:  "//repro:noalloc must be part of a function declaration's doc comment",
			})
		}
	case dirAllocOK, dirNondetermOK, dirObsOK, dirTestonlyOK:
		if reason == "" {
			d.errs = append(d.errs, Diagnostic{
				Pos:      c.Pos(),
				Analyzer: DirectiveAnalyzer.Name,
				Message:  "//repro:" + verb + " requires a justification (//repro:" + verb + " <why>)",
			})
			// Still record it: an unjustified hatch suppresses like a
			// justified one, so the only finding to fix is the missing
			// justification itself, not a duplicate of the suppressed one.
		}
		pos := d.fset.Position(c.Pos())
		h := &hatch{verb: verb, reason: reason, pos: c.Pos(), line: pos.Line, file: pos.Filename}
		byLine := d.hatches[h.file]
		if byLine == nil {
			byLine = make(map[int][]*hatch)
			d.hatches[h.file] = byLine
		}
		byLine[h.line] = append(byLine[h.line], h)
	default:
		d.errs = append(d.errs, Diagnostic{
			Pos:      c.Pos(),
			Analyzer: DirectiveAnalyzer.Name,
			Message:  "unknown directive //repro:" + verb + " (known: noalloc, alloc-ok, nondeterm-ok, obs-ok, testonly-ok)",
		})
	}
}

// Suppressed reports whether a finding at position p is covered by a
// hatch with the given verb: one on the same line (end-of-line form) or
// on the line directly above (standalone form).
func (d *Directives) Suppressed(verb string, p token.Position) bool {
	byLine := d.hatches[p.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, h := range byLine[line] {
			if h.verb == verb {
				return true
			}
		}
	}
	return false
}

// NoallocFor returns the directive position if fd carries
// //repro:noalloc.
func (d *Directives) NoallocFor(fd *ast.FuncDecl) (token.Pos, bool) {
	p, ok := d.NoallocFuncs[fd]
	return p, ok
}

// DirectiveAnalyzer validates the //repro: comments themselves.
var DirectiveAnalyzer = &Analyzer{
	Name: "directive",
	Doc:  "validate //repro: contract directives (unknown verbs, misplaced noalloc, hatches without justification)",
	Run: func(p *Pass) {
		*p.diags = append(*p.diags, p.Dirs.errs...)
	},
}
