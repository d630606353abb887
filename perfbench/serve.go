package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"regreloc/internal/experiment"
	"regreloc/internal/pointstore"
	"regreloc/internal/serve"
)

// harness is rrserved inside the benchmark process: serve.Server's
// handler on a loopback listener, reached over real sockets so handler
// goroutines are woken by the netpoller as in the daemon. The client
// holds at most nproc connections.
type harness struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when Serve returns
	base   string
	client *http.Client
	logged *countingWriter
}

// countingWriter counts the log bytes the server writes. The server's
// logger must format every line, as rrserved's does; io.Discard would
// let the log package skip the formatting and leave the per-request log
// line unmeasured.
type countingWriter struct{ n atomic.Int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return len(p), nil
}

// newHarness starts a server built from cfg, which should be the
// default serve.Config apart from hooks the traced run installs.
func newHarness(cfg serve.Config) (*harness, error) {
	// Request keys embed the engine version, which hashes the
	// executable on unstamped or modified builds: a one-off cost that
	// belongs to set-up.
	pointstore.EngineVersion()
	h := &harness{logged: &countingWriter{}, served: make(chan struct{})}
	cfg.Logger = log.New(h.logged, "rrserved ", log.LstdFlags|log.Lmsgprefix)
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	srv.Start()
	h.srv = srv
	h.hs = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(h.served)
		h.hs.Serve(ln) // returns http.ErrServerClosed from close
	}()
	h.base = "http://" + ln.Addr().String()
	h.client = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
			DisableCompression:  true,
		},
	}
	return h, nil
}

func (h *harness) close() {
	h.client.CloseIdleConnections()
	h.hs.Close()
	<-h.served
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.srv.Shutdown(ctx) // memory-only stores: nothing to persist
}

// post submits req and returns the HTTP status and decoded job status.
func (h *harness) post(req serve.Request) (int, serve.Status, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, serve.Status{}, err
	}
	resp, err := h.client.Post(h.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, serve.Status{}, err
	}
	return decodeStatus(resp)
}

// get fetches a job's status with its result.
func (h *harness) get(id string) (serve.Status, error) {
	resp, err := h.client.Get(h.base + "/v1/jobs/" + id)
	if err != nil {
		return serve.Status{}, err
	}
	code, st, err := decodeStatus(resp)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET job %s: status %d", id, code)
	}
	return st, err
}

func decodeStatus(resp *http.Response) (int, serve.Status, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, serve.Status{}, err
	}
	var st serve.Status
	if resp.StatusCode >= 300 {
		return resp.StatusCode, st, nil
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return resp.StatusCode, st, fmt.Errorf("decoding job status: %w", err)
	}
	return resp.StatusCode, st, nil
}

// await blocks until the job is terminal, observed in process through
// Server.Job(id).Done() so no connection is held while it waits.
func (h *harness) await(id string) error {
	j, ok := h.srv.Job(id)
	if !ok {
		return fmt.Errorf("job %s unknown to the server", id)
	}
	select {
	case <-j.Done():
		return nil
	case <-time.After(time.Minute):
		return fmt.Errorf("job %s not done after a minute", id)
	}
}

// fetch waits for a job and GETs its result bytes, failing unless the
// job is done.
func (h *harness) fetch(id string) ([]byte, error) {
	if err := h.await(id); err != nil {
		return nil, err
	}
	st, err := h.get(id)
	if err != nil {
		return nil, err
	}
	if st.State != serve.StateDone || len(st.Result) == 0 {
		return nil, fmt.Errorf("job %s ended %s %s", id, st.State, st.Error)
	}
	return st.Result, nil
}

// cell is one report point as the server encodes it.
type cell struct {
	Panel         string  `json:"panel"`
	Arch          string  `json:"arch"`
	R             int     `json:"r"`
	L             int     `json:"l"`
	F             int     `json:"f"`
	Eff           float64 `json:"eff"`
	Completed     int     `json:"completed"`
	AvgResident   float64 `json:"avg_resident"`
	MaxResident   int     `json:"max_resident"`
	AvgWastedRegs float64 `json:"avg_wasted_regs"`
	Allocs        int64   `json:"allocs"`
	AllocFails    int64   `json:"alloc_fails"`
	Deallocs      int64   `json:"deallocs"`
	Loads         int64   `json:"loads"`
	Unloads       int64   `json:"unloads"`
	Faults        int64   `json:"faults"`
	Probes        int64   `json:"probes"`
}

func (c cell) id() string { return fmt.Sprintf("%s|%s|%d|%d|%d", c.Panel, c.Arch, c.F, c.R, c.L) }

// cellOf is the cell a measurement should encode to.
func cellOf(m experiment.Measurement) cell {
	return cell{
		Panel: m.Panel, Arch: m.Arch, R: m.R, L: m.L, F: m.F, Eff: m.Eff,
		Completed: m.Res.Completed, AvgResident: m.Res.AvgResident,
		MaxResident: m.Res.MaxResident, AvgWastedRegs: m.Res.AvgWastedRegs,
		Allocs: m.Res.Allocs, AllocFails: m.Res.AllocFails, Deallocs: m.Res.Deallocs,
		Loads: m.Res.Loads, Unloads: m.Res.Unloads, Faults: m.Res.Faults, Probes: m.Res.Probes,
	}
}

// answer is a decoded result: its points in order, each as the exact
// bytes the server wrote and as fields.
type answer struct {
	raw   []json.RawMessage
	cells []cell
}

func decodeAnswer(result []byte) (*answer, error) {
	var rep struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(result, &rep); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	a := &answer{raw: rep.Points, cells: make([]cell, len(rep.Points))}
	for i, raw := range rep.Points {
		if err := json.Unmarshal(raw, &a.cells[i]); err != nil {
			return nil, fmt.Errorf("decoding point %d: %w", i, err)
		}
	}
	return a, nil
}

// gridCells lists the cells a grid request must answer, in report
// order (panel-major F, then R, then L, then arch).
func gridCells(f, r, l []int, archs []string) []string {
	var out []string
	for _, fv := range f {
		for _, rv := range r {
			for _, lv := range l {
				for _, a := range archs {
					out = append(out, cell{Panel: fmt.Sprintf("F=%d", fv), Arch: a, F: fv, R: rv, L: lv}.id())
				}
			}
		}
	}
	return out
}

// checkShape verifies that an answer holds exactly the grid's cells in
// report order.
func (a *answer) checkShape(want []string) error {
	if len(a.cells) != len(want) {
		return fmt.Errorf("%d points, want %d", len(a.cells), len(want))
	}
	for i, c := range a.cells {
		if c.id() != want[i] {
			return fmt.Errorf("point %d is %s, want %s", i, c.id(), want[i])
		}
	}
	return nil
}

var errMismatch = errors.New("cell differs from its reference")
