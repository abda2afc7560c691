package obsv

import (
	"io"
	"strconv"
	"strings"

	"dbwlm/internal/metrics"
)

// PromWriter renders metric families in the Prometheus text exposition
// format (version 0.0.4) with nothing but the standard library. Usage is
// family-then-samples:
//
//	p := obsv.NewPromWriter(w)
//	p.Counter("dbwlm_decisions_total", "Admission decisions.")
//	p.Val(float64(n), "class", "batch", "verdict", "admitted")
//	p.Histogram("dbwlm_latency_seconds", "Service latency.")
//	p.Hist(h, "class", "batch")
//	err := p.Err()
//
// Counter/Gauge/Histogram emit the # HELP / # TYPE header and set the
// current family; Val and Hist emit samples for it. Errors are sticky and
// surfaced by Err, so callers can write a whole page and check once.
type PromWriter struct {
	w    io.Writer
	name string
	err  error
	buf  []byte
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, buf: make([]byte, 0, 256)}
}

// Err reports the first write error.
func (p *PromWriter) Err() error { return p.err }

// Counter begins a counter family.
func (p *PromWriter) Counter(name, help string) { p.family(name, "counter", help) }

// Gauge begins a gauge family.
func (p *PromWriter) Gauge(name, help string) { p.family(name, "gauge", help) }

// Histogram begins a histogram family; emit its series with Hist.
func (p *PromWriter) Histogram(name, help string) { p.family(name, "histogram", help) }

func (p *PromWriter) family(name, typ, help string) {
	p.name = name
	b := p.buf[:0]
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = appendEscaped(b, help, false)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	b = append(b, '\n')
	p.write(b)
}

// Val emits one sample of the current family. labels are alternating
// name/value pairs.
func (p *PromWriter) Val(v float64, labels ...string) {
	b := p.sampleName(p.buf[:0], "", labels)
	b = append(b, ' ')
	b = appendValue(b, v)
	b = append(b, '\n')
	p.write(b)
}

// Hist emits a concurrent histogram as the conventional _bucket/_sum/_count
// series of the current family: cumulative counts at each non-empty bucket
// upper bound plus the mandatory le="+Inf" terminal. Sparse emission keeps a
// 128-bucket log histogram to a handful of lines; cumulative `le` semantics
// stay exact because every omitted bucket's cumulative count equals the
// previous emitted one.
func (p *PromWriter) Hist(h *metrics.ConcurrentHistogram, labels ...string) {
	leLabels := make([]string, len(labels)+2)
	copy(leLabels, labels)
	leLabels[len(labels)] = "le"
	count, sum := h.Cumulative(func(upper float64, cum int64) {
		leLabels[len(labels)+1] = strconv.FormatFloat(upper, 'g', -1, 64)
		b := p.sampleName(p.buf[:0], "_bucket", leLabels)
		b = append(b, ' ')
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
		p.write(b)
	})
	leLabels[len(labels)+1] = "+Inf"
	b := p.sampleName(p.buf[:0], "_bucket", leLabels)
	b = append(b, ' ')
	b = strconv.AppendInt(b, count, 10)
	b = append(b, '\n')
	b = p.sampleName(b, "_sum", labels)
	b = append(b, ' ')
	b = appendValue(b, sum)
	b = append(b, '\n')
	b = p.sampleName(b, "_count", labels)
	b = append(b, ' ')
	b = strconv.AppendInt(b, count, 10)
	b = append(b, '\n')
	p.write(b)
}

// sampleName appends name+suffix{labels} to b.
func (p *PromWriter) sampleName(b []byte, suffix string, labels []string) []byte {
	b = append(b, p.name...)
	b = append(b, suffix...)
	if len(labels) > 0 {
		b = append(b, '{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, labels[i]...)
			b = append(b, '=', '"')
			b = appendEscaped(b, labels[i+1], true)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	return b
}

func (p *PromWriter) write(b []byte) {
	p.buf = b[:0]
	if p.err != nil {
		return
	}
	_, p.err = p.w.Write(b)
}

// appendValue renders a float the way Prometheus expects: integral values
// without an exponent, everything else in shortest-round-trip form.
func appendValue(b []byte, v float64) []byte {
	if v == float64(int64(v)) && v > -1e15 && v < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendEscaped escapes backslash and newline (plus double quotes inside
// label values) per the text-format rules.
func appendEscaped(b []byte, s string, label bool) []byte {
	if !strings.ContainsAny(s, "\\\n\"") {
		return append(b, s...)
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '"':
			if label {
				b = append(b, '\\', '"')
			} else {
				b = append(b, '"')
			}
		default:
			b = append(b, c)
		}
	}
	return b
}
