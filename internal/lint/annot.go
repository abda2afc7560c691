package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// This file scans the //dbwlm: directive vocabulary (DESIGN.md §10):
//
//	//dbwlm:hotpath            on a function: the body must not allocate
//	//dbwlm:deterministic      in a package comment: detlint applies
//	//dbwlm:sorted             on a map range whose order is laundered later
//	//dbwlm:locked <mu>        on a function: callers must hold <mu>
//	//dbwlm:dyncall -- <reason>          on a dynamic call (or the declaration
//	                                     of the function-typed field/var it goes
//	                                     through): the unknowable targets are
//	                                     asserted hotpath-safe; the reason is
//	                                     required (the injected-clock pattern)
//	//dbwlm:nolint <names> -- <reason>   suppress named analyzers on this or
//	                                     the next line; the reason is required
//	                                     and deadcode may not be named
//
// Misplaced or malformed directives are themselves diagnostics ("directive"
// findings) that cannot be suppressed — a silently ignored annotation is
// exactly the churn-rot this tool exists to prevent.

// suppression is one parsed //dbwlm:nolint comment.
type suppression struct {
	line      int
	analyzers map[string]bool
	reason    string
	used      bool
}

// dynDirective is one parsed //dbwlm:dyncall comment. It trusts dynamic calls
// on its own line and the line below it — either the call itself, or the
// declaration of the function-typed field/var the call dispatches through.
type dynDirective struct {
	line   int
	reason string
	used   bool
}

const dirPrefix = "//dbwlm:"

// prose conventions that predate the directive vocabulary: a doc comment
// saying the caller must hold a mutex is honored like //dbwlm:locked.
var lockedProseRe = regexp.MustCompile(
	`(?i)\b(?:caller holds|caller must hold|callers hold|called with)\s+([A-Za-z_]\w*)\b`)

// scanDirectives walks every comment in the module, parsing suppressions and
// //dbwlm:sorted markers into their files and validating directive placement.
func (m *Module) scanDirectives() {
	m.hot = make(map[*types.Func]bool)
	m.lockedBy = make(map[*types.Func]string)
	m.det = make(map[*Package]bool)

	// Directives that make sense only attached to a declaration are consumed
	// by the decl walk below; any left over are misplaced.
	consumed := make(map[*ast.Comment]bool)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			if f.Ast.Doc != nil {
				for _, c := range f.Ast.Doc.List {
					if directiveVerb(c) == "deterministic" {
						m.det[pkg] = true
						consumed[c] = true
					}
				}
			}
			for _, decl := range f.Ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Doc != nil {
					fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
					for _, c := range fd.Doc.List {
						switch verb, rest := splitDirective(c); verb {
						case "hotpath":
							consumed[c] = true
							if fn != nil {
								m.hot[fn] = true
							}
						case "locked":
							consumed[c] = true
							name := strings.TrimSpace(rest)
							if name == "" {
								m.dirDiag(c.Pos(), "//dbwlm:locked needs a mutex field name")
							} else if fn != nil {
								m.lockedBy[fn] = name
							}
						}
					}
					if fn != nil && m.lockedBy[fn] == "" {
						if sub := lockedProseRe.FindStringSubmatch(fd.Doc.Text()); sub != nil {
							m.lockedBy[fn] = sub[1]
						}
					}
				}
			}
		}
	}

	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			f.sorted = make(map[int]bool)
			for _, cg := range f.Ast.Comments {
				for _, c := range cg.List {
					verb, rest := splitDirective(c)
					if verb == "" {
						continue
					}
					line := m.Fset.Position(c.Pos()).Line
					switch verb {
					case "sorted":
						f.sorted[line] = true
					case "nolint":
						s, errMsg := parseNolint(line, rest)
						if errMsg != "" {
							m.dirDiag(c.Pos(), errMsg)
							continue
						}
						f.suppress = append(f.suppress, s)
					case "dyncall":
						reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), "--"))
						if !strings.Contains(rest, "--") || reason == "" {
							m.dirDiag(c.Pos(), "//dbwlm:dyncall needs a justification: //dbwlm:dyncall -- <reason>")
							continue
						}
						f.dyn = append(f.dyn, dynDirective{line: line, reason: reason})
					case "hotpath", "deterministic", "locked":
						if !consumed[c] {
							m.dirDiag(c.Pos(), "misplaced //dbwlm:"+verb+
								" (must be in a "+dirHome(verb)+")")
						}
					default:
						m.dirDiag(c.Pos(), "unknown directive //dbwlm:"+verb)
					}
				}
			}
		}
	}
}

func dirHome(verb string) string {
	if verb == "deterministic" {
		return "package doc comment"
	}
	return "function doc comment"
}

// parseNolint parses "<names> -- <reason>". Names are comma-separated
// analyzer names; the reason after " -- " is mandatory — every suppression
// must justify itself in place. deadcode takes no waiver: code no binary
// runs is deleted or called, not kept.
func parseNolint(line int, rest string) (suppression, string) {
	names, reason, ok := strings.Cut(rest, "--")
	reason = strings.TrimSpace(reason)
	if !ok || reason == "" {
		return suppression{}, "//dbwlm:nolint needs a justification: " +
			"//dbwlm:nolint <analyzers> -- <reason>"
	}
	s := suppression{line: line, analyzers: make(map[string]bool), reason: reason}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if !analyzerNames[n] {
			return suppression{}, "//dbwlm:nolint names unknown analyzer " + n
		}
		if n == "deadcode" {
			return suppression{}, "//dbwlm:nolint cannot name deadcode: delete the code or call it from a binary"
		}
		s.analyzers[n] = true
	}
	if len(s.analyzers) == 0 {
		return suppression{}, "//dbwlm:nolint names no analyzers"
	}
	return s, ""
}

func (m *Module) dirDiag(pos token.Pos, msg string) {
	m.dirDiags = append(m.dirDiags, m.diag("directive", pos, msg))
}

// splitDirective returns the verb and argument text of a //dbwlm: comment
// ("" when c is an ordinary comment). Directive comments have no space after
// // and are therefore excluded from go doc output by convention.
func splitDirective(c *ast.Comment) (verb, rest string) {
	text, ok := strings.CutPrefix(c.Text, dirPrefix)
	if !ok {
		return "", ""
	}
	verb, rest, _ = strings.Cut(text, " ")
	return verb, rest
}

func directiveVerb(c *ast.Comment) string {
	verb, _ := splitDirective(c)
	return verb
}
