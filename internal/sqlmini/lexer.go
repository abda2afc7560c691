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
	// scan's kinds for input the dialect rejects, spanning the offending
	// byte (the alien byte, or an unterminated string's quote) to the end.
	tokUnterminated
	tokAlien
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

// scan is the dialect's one tokenizer: it skips white space and -- comments
// from input[i] on and returns the kind and byte span of the next token — a
// word (TokIdent, keyword or not), a number, a string (the span includes its
// quotes), a symbol (<= >= <> != are one), TokEOF at the end of the input, or
// one of the two error kinds. The fingerprint hashes these tokens and the
// parser reads them through nextToken, so the two cannot disagree on a
// token boundary.
//
//dbwlm:hotpath
func scan(input string, i int) (kind TokenKind, start, end int) {
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case isIdentStart(c):
			start = i
			for i < n && isIdentByte(input[i]) {
				i++
			}
			return TokIdent, start, i
		case unicode.IsSpace(rune(c)):
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case c >= '0' && c <= '9':
			start = i
			for i < n && (input[i] >= '0' && input[i] <= '9' || input[i] == '.') {
				i++
			}
			return TokNumber, start, i
		case c == '\'':
			start = i
			for i++; i < n && input[i] != '\''; i++ {
			}
			if i == n {
				return tokUnterminated, start, n
			}
			return TokString, start, i + 1
		case c == '(' || c == ')' || c == ',' || c == '*' || c == '=' || c == '<' ||
			c == '>' || c == '.' || c == ';' || c == '+' || c == '-' || c == '/' ||
			c == '%' || c == '!':
			if i+1 < n && (input[i+1] == '=' && (c == '<' || c == '>' || c == '!') || c == '<' && input[i+1] == '>') {
				return TokSymbol, i, i + 2
			}
			return TokSymbol, i, i + 1
		default:
			return tokAlien, i, n
		}
	}
	return TokEOF, n, n
}

// nextToken returns the token at or after input[i] as the parser reads it,
// and the offset just past it. A word is a keyword, with the keyword table's
// upper-case text, or an identifier, lower-cased; a string's text drops its
// quotes. Input the dialect rejects comes back as an EOF token and the error.
func nextToken(input string, i int) (Token, int, error) {
	kind, start, end := scan(input, i)
	text := input[start:end]
	switch kind {
	case TokIdent:
		if kw, ok := keyword(text); ok {
			return Token{TokKeyword, kw, start}, end, nil
		}
		text = strings.ToLower(text)
	case TokString:
		text = text[1 : len(text)-1]
	case tokUnterminated:
		return Token{Pos: start}, end, fmt.Errorf("sqlmini: unterminated string at offset %d", start)
	case tokAlien:
		return Token{Pos: start}, end, fmt.Errorf("sqlmini: unexpected byte %q at offset %d", rune(input[start]), start)
	}
	return Token{kind, text, start}, end, nil
}

// isIdentStart reports whether b starts an identifier or keyword: an ASCII
// letter or an underscore. It must not accept a byte isIdentByte rejects, or
// a scan starting there would never advance. Latin-1 letter bytes (0xAA,
// 0xB5, 0xC0–0xFF, which unicode.IsLetter accepts as runes) are alien bytes.
func isIdentStart(b byte) bool {
	return b == '_' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

func isIdentByte(b byte) bool {
	return isIdentStart(b) || b >= '0' && b <= '9'
}
