// Example wlmd: drive the live workload-management daemon's HTTP API end to
// end — admit under per-class gates, watch a request queue and flow when a
// slot frees, reload limits at runtime, and read the merged statistics.
//
//	go run ./examples/wlmd
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"time"

	"dbwlm/internal/policy"
	"dbwlm/internal/rt"
	"dbwlm/internal/rthttp"
)

func main() {
	// The daemon's runtime: two classes, with batch throttled to MPL 1 so the
	// wait queue is observable.
	r, err := rt.New([]rt.ClassSpec{
		{Name: "interactive", Priority: policy.PriorityHigh, MaxMPL: 8},
		{Name: "batch", Priority: policy.PriorityLow, MaxMPL: 1,
			MaxQueueDelay: 2 * time.Second, RetryBatch: 4},
	}, rt.Options{GlobalMaxMPL: 16, RetryEvery: 50 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	r.Start()
	defer r.Stop()

	// cmd/wlmd's handler over an in-process listener; point real clients at
	// `go run ./cmd/wlmd -addr :8628` instead.
	srv := httptest.NewServer(rthttp.NewServer(r))
	defer srv.Close()

	fmt.Println("== admit/done round trip ==")
	tok := admit(srv, "interactive", 100)
	// The token's admission instant differs from run to run.
	g, err := r.ParseToken(tok)
	if err != nil {
		log.Fatal(err)
	}
	class, _, id, _ := g.Parts()
	fmt.Printf("interactive admitted, grant for class %q (id %d: no flight recorder), in-engine now %d\n",
		r.ClassName(class), id, r.InEngine())
	done(srv, tok)

	fmt.Println("\n== queueing at the batch gate ==")
	holder := admit(srv, "batch", 0) // takes batch's only slot
	queued := make(chan string)
	go func() { queued <- admit(srv, "batch", 0) }() // parks in the FIFO queue
	for r.QueueLen(1) == 0 {
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("second batch request parked (queue length %d); releasing the slot\n", r.QueueLen(1))
	done(srv, holder)
	done(srv, <-queued)
	fmt.Println("released slot handed to the parked request, FIFO order")

	fmt.Println("\n== runtime policy reload ==")
	resp, err := http.Post(srv.URL+"/policy", "application/json", strings.NewReader(
		`{"global_max_mpl": 16, "classes": [{"class": "batch", "max_mpl": 4, "retry_batch": 4}]}`))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Println("batch MPL raised 1 -> 4 while traffic flows")

	fmt.Println("\n== merged statistics ==")
	st, err := http.Get(srv.URL + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer st.Body.Close()
	var stats struct {
		InEngine int `json:"in_engine"`
		Classes  []struct {
			Class    string `json:"class"`
			Admitted int64  `json:"admitted"`
			Queued   int64  `json:"queued"`
			Done     int64  `json:"done"`
		} `json:"classes"`
	}
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	for _, c := range stats.Classes {
		fmt.Printf("%-12s admitted=%d queued=%d done=%d\n", c.Class, c.Admitted, c.Queued, c.Done)
	}
}

func admit(srv *httptest.Server, class string, cost float64) string {
	resp, err := http.PostForm(srv.URL+"/admit",
		url.Values{"class": {class}, "cost": {fmt.Sprint(cost)}})
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var ar struct {
		Verdict string `json:"verdict"`
		Token   string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		log.Fatal(err)
	}
	if ar.Verdict != "admitted" {
		log.Fatalf("%s: %s", class, ar.Verdict)
	}
	return ar.Token
}

func done(srv *httptest.Server, token string) {
	resp, err := http.PostForm(srv.URL+"/done", url.Values{"token": {token}})
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
}
