// Package apitest is the HTTP client of the tests that drive idxmerged
// from outside its package: cmd/idxmerge's jobs against the CLI, and
// cmd/idxmerged's tests of the real binary. Every method fails the test
// on a transport error or on an answer the caller did not ask for.
package apitest

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"indexmerge/internal/server"
)

// Client talks to the daemon at URL on behalf of test T.
type Client struct {
	T   testing.TB
	URL string
}

// Call sends body as tenant (none if empty) and returns the status, the
// headers and the answer.
func (c *Client) Call(tenant, method, path, body string) (int, http.Header, []byte) {
	c.T.Helper()
	req, err := http.NewRequest(method, c.URL+path, strings.NewReader(body))
	if err != nil {
		c.T.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.T.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.T.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// Do sends a request that must succeed and decodes its answer into out.
func (c *Client) Do(tenant, method, path, body string, out any) {
	c.T.Helper()
	if code, _, data := c.Call(tenant, method, path, body); code >= 300 || (out != nil && json.Unmarshal(data, out) != nil) {
		c.T.Fatalf("%s %s: %d %s", method, path, code, data)
	}
}

// Refused sends a request that must be refused with status and code.
func (c *Client) Refused(tenant, method, path, body string, status int, code string) (e server.ErrorResponse, hdr http.Header) {
	c.T.Helper()
	got, hdr, data := c.Call(tenant, method, path, body)
	if err := json.Unmarshal(data, &e); err != nil || got != status || e.Code != code {
		c.T.Errorf("%s %s as %q: %d %s, want %d %s", method, path, tenant, got, data, status, code)
	}
	return e, hdr
}

// Submit posts a job, which must be queued, and returns its ID.
func (c *Client) Submit(tenant, path, body string) string {
	c.T.Helper()
	var job server.SubmitJobResponse
	if c.Do(tenant, "POST", path, body, &job); job.State != "queued" {
		c.T.Fatalf("POST %s: %+v, want a queued job", path, job)
	}
	return job.ID
}

// Wait polls job id until it is in state and returns its status; a job
// that ends in another state fails the test.
func (c *Client) Wait(id, state string) (st server.JobStatus) {
	c.T.Helper()
	for end := time.Now().Add(time.Minute); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if c.Do("", "GET", "/v1/jobs/"+id, "", &st); st.State == state {
			return st
		} else if st.State != "queued" && st.State != "running" {
			break
		}
	}
	c.T.Fatalf("job %s: %+v, want state %s", id, st, state)
	return st
}

// Metrics fails the test for each prefix no line of /metrics starts with.
func (c *Client) Metrics(prefixes ...string) {
	c.T.Helper()
	_, _, text := c.Call("", "GET", "/metrics", "")
	for _, p := range prefixes {
		if !strings.Contains("\n"+string(text), "\n"+p) {
			c.T.Errorf("/metrics has no line %q", p)
		}
	}
}
