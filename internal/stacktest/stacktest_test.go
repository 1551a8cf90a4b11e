package stacktest

import (
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
	"time"

	"vital/internal/gateway"
	"vital/internal/sched"
)

// bootSubmitClose boots a stack, submits one lenet-S through the gateway,
// awaits a succeeded ticket, and closes the stack.
func bootSubmitClose(t *testing.T) {
	t.Helper()
	st, err := Boot(sched.Options{}, gateway.Config{Tokens: map[string]string{"tok": "acme"}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	resp, body, err := st.Post(st.Front+"/submit", "tok", map[string]string{"design": "lenet-S"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	var sub struct {
		Ticket struct {
			ID string `json:"id"`
		} `json:"ticket"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	tk, err := st.AwaitTicket(sub.Ticket.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if tk.State != sched.TicketSucceeded {
		t.Fatalf("ticket %s: %s (%s)", tk.ID, tk.State, tk.Error)
	}
	if _, err := st.FetchExposition(st.Front); err != nil {
		t.Fatal(err)
	}
}

// TestBootCloseLeavesNoGoroutines checks Close stops everything Boot
// started — servers, connections and the async deploy workers — so a
// second stack can boot in the same process.
func TestBootCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	bootSubmitClose(t)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before Boot:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	bootSubmitClose(t)
}

func TestKillBackendFailsForwards(t *testing.T) {
	st, err := Boot(sched.Options{}, gateway.Config{Tokens: map[string]string{"tok": "acme"}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.KillBackend()
	resp, body, err := st.Post(st.Front+"/submit", "tok", map[string]string{"design": "lenet-S"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("submit with the backend down: %s: %s, want 502", resp.Status, body)
	}
}
