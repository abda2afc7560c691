package sqlmini

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
// It hashes the tokens of scan, the tokenizer the parser reads too, without
// materializing them: normalized bytes stream into two independent FNV-1a
// accumulators. No allocation — wire-speed for the admit path.

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
// the parser reads them).
//
//dbwlm:hotpath
func upperByte(b byte) byte {
	if b >= 'a' && b <= 'z' {
		return b - 'a' + 'A'
	}
	return b
}

// isWord reports whether word is the upper-case keyword kw in any letter
// case.
func isWord(word, kw string) bool {
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

// FingerprintSQL hashes the normalized token stream of one statement. It
// performs no allocation and never fails: input the parser would reject
// hashes raw instead — an unterminated string the whole input, an alien byte
// the input from that byte on — which keeps the function total. Such
// statements miss the plan cache and surface their lex error from the parser
// on the miss path.
//
// Normalization rules (see DESIGN.md, "Prediction at wire speed"):
//   - whitespace and -- comments are insignificant; a separator byte
//     follows each token
//   - words hash upper-cased, keyword or not
//   - number and string literals hash as one placeholder byte each, except a
//     number after LIMIT or inside a LOAD statement (those change the plan's
//     cost, not just its bindings), which hashes verbatim
//   - symbols hash verbatim, a separator after each byte (so <= hashes as the
//     symbols < and =)
//
//dbwlm:hotpath
func FingerprintSQL(input string) Fingerprint {
	s := fpState{h1: fnvOffset64, h2: fnvOffsetAlt}
	// nextNumberVerbatim: hash the next number verbatim. Set by the LIMIT
	// keyword; loadStmt latches it on for LOAD statements.
	nextNumberVerbatim, loadStmt := false, false
	i := 0
	for first := true; ; first = false {
		kind, start, end := scan(input, i)
		tok := input[start:end]
		i = end
		switch kind {
		case TokEOF:
			return Fingerprint{Hi: s.h1, Lo: s.h2}
		case TokIdent:
			for j := 0; j < len(tok); j++ {
				s.writeByte(upperByte(tok[j]))
			}
			if isWord(tok, "LIMIT") {
				nextNumberVerbatim = true
			}
			if first && isWord(tok, "LOAD") {
				loadStmt = true
			}
		case TokNumber:
			if nextNumberVerbatim || loadStmt {
				s.writeString(tok)
				nextNumberVerbatim = false
			} else {
				s.writeByte(fpNumber)
			}
		case TokString:
			s.writeByte(fpStringLit)
		case TokSymbol:
			// Byte by byte: <= hashes as the symbols < and =.
			for j := 0; j < len(tok); j++ {
				s.writeByte(tok[j])
				s.writeByte(fpSep)
			}
			continue
		case tokUnterminated:
			s.writeString(input)
			return Fingerprint{Hi: s.h1, Lo: s.h2}
		default: // tokAlien
			s.writeString(tok)
			return Fingerprint{Hi: s.h1, Lo: s.h2}
		}
		s.writeByte(fpSep)
	}
}
