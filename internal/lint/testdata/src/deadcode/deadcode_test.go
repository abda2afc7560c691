package deadcode

import "testing"

func TestOnly(t *testing.T) {
	if testOnly() != 3 {
		t.Fatal("testOnly")
	}
}
