package sqlmini

import "unicode"

// This file computes query fingerprints: a 128-bit hash of a statement's
// normalized token stream with literals stripped, so every instance of a
// repeated query shape ("SELECT ... WHERE id = ?") maps to one fingerprint
// regardless of the literal values bound in it. The fingerprint is the key of
// the plan cache (plancache.go): the cost model never looks at literal values
// when estimating predicates (Selectivity is operator-based), so two
// statements with equal fingerprints plan identically. The two literal
// positions that DO change the plan — the LIMIT count and the LOAD row count
// — are hashed verbatim, and VALUES row counts are captured structurally by
// their parenthesis/comma symbols.
//
// The scanner mirrors Lex byte for byte (same whitespace, comment, identifier,
// number, string, and symbol rules) but never materializes tokens: it streams
// normalized bytes into two independent FNV-1a accumulators. No allocation,
// no branches on input length — wire-speed for the admit path.

// Fingerprint identifies a normalized statement shape. Two lanes of
// independent 64-bit FNV-1a make accidental collision probability ~2^-128;
// the plan cache still stores and compares the full fingerprint on lookup, so
// a collision degrades to a cache miss on one of the two shapes, never to a
// wrong plan for a mismatched Lo alone.
type Fingerprint struct {
	Hi, Lo uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// The second lane starts from a different offset basis (the FNV-1a basis
	// xored with an arbitrary odd constant) so the lanes decorrelate.
	fnvOffsetAlt = fnvOffset64 ^ 0x9E3779B97F4A7C15
)

// fpState streams normalized token bytes into the two hash lanes.
type fpState struct {
	h1, h2 uint64
}

//dbwlm:hotpath
func (s *fpState) writeByte(b byte) {
	s.h1 = (s.h1 ^ uint64(b)) * fnvPrime64
	s.h2 = (s.h2 ^ uint64(b)) * fnvPrime64
}

//dbwlm:hotpath
func (s *fpState) writeString(str string) {
	for i := 0; i < len(str); i++ {
		s.writeByte(str[i])
	}
}

// Token-class separators keep distinct token streams from concatenating into
// the same byte stream ("a b" vs "ab").
const (
	fpSep       = 0x1F
	fpNumber    = 0x01 // a stripped numeric literal
	fpStringLit = 0x02 // a stripped string literal
)

// upperByte uppercases ASCII letters (keywords hash case-insensitively, as
// Lex uppercases them).
//
//dbwlm:hotpath
func upperByte(b byte) byte {
	if b >= 'a' && b <= 'z' {
		return b - 'a' + 'A'
	}
	return b
}

// FingerprintSQL hashes the normalized token stream of one statement. It
// performs no allocation and never fails: input the lexer would reject
// (unterminated strings, alien bytes) hashes the raw remainder instead, which
// keeps the function total — such statements will miss the plan cache and
// surface their lex error from the parser on the miss path.
//
// Normalization rules (see DESIGN.md, "Prediction at wire speed"):
//   - whitespace and -- comments are insignificant
//   - identifiers hash lowercased, keywords uppercased (matching Lex)
//   - number and string literals hash as one placeholder byte each, except a
//     number immediately following LIMIT or inside a LOAD statement (those
//     change the plan's cost, not just its bindings)
//   - symbols hash verbatim
//
//dbwlm:hotpath
func FingerprintSQL(input string) Fingerprint {
	s := fpState{h1: fnvOffset64, h2: fnvOffsetAlt}
	i, n := 0, len(input)
	// literalNumbers: hash the next number verbatim. Set after the LIMIT
	// keyword; latched on for LOAD statements.
	nextNumberVerbatim := false
	loadStmt := false
	firstToken := true
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
			continue
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
			continue
		case isIdentStart(input[i]):
			start := i
			for i < n && isIdentByte(input[i]) {
				i++
			}
			word := input[start:i]
			// Uppercase while hashing; keyword-ness only matters for the two
			// verbatim-number triggers. Identifiers hash lowercased by Lex's
			// rules, but hashing both cases through upperByte keeps the scan
			// allocation-free and stays consistent: a case-folded word maps to
			// the same bytes whether Lex would call it keyword or identifier.
			for j := 0; j < len(word); j++ {
				s.writeByte(upperByte(word[j]))
			}
			upperIs := func(kw string) bool {
				if len(word) != len(kw) {
					return false
				}
				for j := 0; j < len(kw); j++ {
					if upperByte(word[j]) != kw[j] {
						return false
					}
				}
				return true
			}
			if upperIs("LIMIT") {
				nextNumberVerbatim = true
			}
			if firstToken && upperIs("LOAD") {
				loadStmt = true
			}
		case unicode.IsDigit(c):
			start := i
			for i < n && (unicode.IsDigit(rune(input[i])) || input[i] == '.') {
				i++
			}
			if nextNumberVerbatim || loadStmt {
				s.writeString(input[start:i])
				nextNumberVerbatim = false
			} else {
				s.writeByte(fpNumber)
			}
		case c == '\'':
			i++
			for i < n && input[i] != '\'' {
				i++
			}
			if i >= n {
				// Unterminated string: hash the tail raw and finish.
				s.writeString(input)
				return Fingerprint{Hi: s.h1, Lo: s.h2}
			}
			i++
			s.writeByte(fpStringLit)
		case c == '(' || c == ')' || c == ',' || c == '*' || c == '=' || c == '<' ||
			c == '>' || c == '.' || c == ';' || c == '+' || c == '-' || c == '/' ||
			c == '%' || c == '!':
			// Two-character operators hash as their two bytes anyway.
			s.writeByte(input[i])
			i++
		default:
			// Byte outside the dialect: hash the raw input so the result is
			// still deterministic (the parser will reject it on the miss path).
			s.writeString(input[i:])
			return Fingerprint{Hi: s.h1, Lo: s.h2}
		}
		s.writeByte(fpSep)
		firstToken = false
	}
	return Fingerprint{Hi: s.h1, Lo: s.h2}
}
