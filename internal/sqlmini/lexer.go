// Package sqlmini implements a minimal SQL dialect: a lexer, a parser, a
// catalog with table statistics, and a cost-based plan builder. It is the
// "query optimizer" substrate of the workload manager: it classifies incoming
// statements by type (READ / WRITE / DML / DDL / LOAD / CALL, the work-class
// types DB2 WLM uses, Section 4.1.1 of the paper) and produces the estimated
// costs and cardinalities that every threshold- and prediction-based control
// consumes.
package sqlmini

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind labels a lexical token.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokSymbol
)

// Token is one lexical token with its position for error reporting.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased
	Pos  int
}

// keywords maps each keyword to itself, so a keyword token's text is the
// table's own string however the input spelled it.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "AND", "OR", "JOIN", "INNER", "LEFT", "ON",
		"GROUP", "BY", "ORDER", "LIMIT", "INSERT", "INTO", "VALUES", "UPDATE",
		"SET", "DELETE", "CREATE", "DROP", "TABLE", "INDEX", "LOAD", "CALL",
		"AS", "COUNT", "SUM", "AVG", "MIN", "MAX", "DISTINCT", "HAVING", "NOT",
		"NULL", "BETWEEN", "LIKE", "IN", "ASC", "DESC", "UNION", "ALL",
	} {
		m[kw] = kw
	}
	return m
}()

// maxKeyword is the length of the longest keyword (DISTINCT).
const maxKeyword = 8

// maxPresize is the most tokens Lex sizes its result for before it has seen
// them: more than a live statement holds.
const maxPresize = 256

// keyword returns the canonical upper-case text of word if it is a keyword
// in any letter case. The case fold goes through a stack buffer and the map
// lookup on its bytes does not copy them, so it allocates nothing.
func keyword(word string) (string, bool) {
	if len(word) > maxKeyword {
		return "", false
	}
	var buf [maxKeyword]byte
	for i := 0; i < len(word); i++ {
		buf[i] = upperByte(word[i])
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// Lex splits input into tokens. It returns an error for unterminated strings
// or bytes outside the dialect.
func Lex(input string) ([]Token, error) {
	n := len(input)
	// A token is at least one byte and usually two or more with its
	// separator: sizing for one per two bytes makes growth rare. The cap
	// bounds the guess, so a long literal or comment (a few tokens in many
	// bytes) costs no more than a statement of maxPresize tokens; beyond it
	// the slice grows with the tokens actually found.
	toks := make([]Token, 0, min(n/2+2, maxPresize))
	i := 0
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			// Line comment.
			for i < n && input[i] != '\n' {
				i++
			}
		case isIdentStart(input[i]):
			start := i
			for i < n && isIdentByte(input[i]) {
				i++
			}
			word := input[start:i]
			if kw, ok := keyword(word); ok {
				toks = append(toks, Token{TokKeyword, kw, start})
			} else {
				toks = append(toks, Token{TokIdent, strings.ToLower(word), start})
			}
		case unicode.IsDigit(c):
			start := i
			for i < n && (unicode.IsDigit(rune(input[i])) || input[i] == '.') {
				i++
			}
			toks = append(toks, Token{TokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			for i < n && input[i] != '\'' {
				i++
			}
			if i >= n {
				return nil, fmt.Errorf("sqlmini: unterminated string at offset %d", start)
			}
			i++
			toks = append(toks, Token{TokString, input[start+1 : i-1], start})
		case strings.ContainsRune("(),*=<>.;+-/%!", c):
			// Two-character operators.
			if i+1 < n {
				two := input[i : i+2]
				if two == "<=" || two == ">=" || two == "<>" || two == "!=" {
					toks = append(toks, Token{TokSymbol, two, i})
					i += 2
					continue
				}
			}
			toks = append(toks, Token{TokSymbol, input[i : i+1], i})
			i++
		default:
			return nil, fmt.Errorf("sqlmini: unexpected byte %q at offset %d", c, i)
		}
	}
	toks = append(toks, Token{TokEOF, "", n})
	return toks, nil
}

// isIdentStart reports whether b starts an identifier or keyword: an ASCII
// letter or an underscore. It must not accept a byte isIdentByte rejects, or
// a scan starting there would never advance. Latin-1 letter bytes (0xAA,
// 0xB5, 0xC0–0xFF, which unicode.IsLetter accepts as runes) are alien bytes.
//
//dbwlm:hotpath
func isIdentStart(b byte) bool {
	return b == '_' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

//dbwlm:hotpath
func isIdentByte(b byte) bool {
	return isIdentStart(b) || b >= '0' && b <= '9'
}
