package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// compressGolden pins Compress's output bytes across kernel rewrites: the
// SHA-256 of the binary-encoded representatives of Synth(seed, 16000) at the
// what-if benchmark's shape (Ratio 16, Strata 6, clustering seed = trace
// seed). The digests were recorded with the brute-force Lloyd assignment,
// before learn.KMeansFlat gained its distance bounds; a pruning step that
// ever decides an assignment differently from the exhaustive scan shows up
// here as a changed digest.
var compressGolden = map[uint64]string{
	1: "9bccdc40312b37c0fc6e32e38ca06a8262ed3d3e91ced35d01b8d574db6e3427",
	2: "7fd44123d352d9cb2e32e6efae0bc7320ae175ebf403fd139f644edf5f67670c",
	7: "6f4459e5c3c972ca5c342f02ed0d0016573bf2a16ec259e9449e511640e04171",
}

func TestCompressGoldenDigests(t *testing.T) {
	for _, seed := range []uint64{1, 2, 7} {
		h, rows := Synth(seed, 16000)
		for _, workers := range []int{1, 0} {
			comp := Compress(h, rows, CompressConfig{Ratio: 16, Strata: 6, Seed: seed, MaxWorkers: workers})
			sum := sha256.Sum256(encodeAll(t, comp))
			if got := hex.EncodeToString(sum[:]); got != compressGolden[seed] {
				t.Errorf("seed %d MaxWorkers %d: %d representatives, digest %s, want %s",
					seed, workers, len(comp), got, compressGolden[seed])
			}
		}
	}
}
