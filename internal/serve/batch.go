package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"segbus/internal/analyze"
	"segbus/internal/obs/reqtrace"
)

// BatchRequest is the /estimate/batch request body: up to
// Config.MaxBatchItems independent estimate requests.
type BatchRequest struct {
	Items []EstimateRequest `json:"items"`
}

// BatchItem is one per-item result of a batch response. Status, Code,
// Error and Diagnostics mirror exactly what a single /estimate of the
// same item would have produced; Report carries the report JSON bytes
// verbatim (byte-identical to the single endpoint's body, whitespace
// included), so a batch client can diff items against CLI output.
type BatchItem struct {
	Index       int                  `json:"index"`
	Status      int                  `json:"status"`
	Cache       string               `json:"cache,omitempty"`
	Code        string               `json:"code,omitempty"`
	Error       string               `json:"error,omitempty"`
	Diagnostics []analyze.Diagnostic `json:"diagnostics,omitempty"`
	Report      json.RawMessage      `json:"report,omitempty"`
}

// BatchResponse is the /estimate/batch response body. The envelope is
// 200 whenever it was well-formed — per-item failures ride in Items
// with their own SB9xx codes and never fail the batch.
type BatchResponse struct {
	Items        []BatchItem `json:"items"`
	Served       int         `json:"served"`
	Failed       int         `json:"failed"`
	Deduplicated int         `json:"deduplicated"`
}

// handleBatch is the batch endpoint: decode the envelope, parse every
// item on the request goroutine, deduplicate by content key, fan the
// unique keys out through the shared pipeline (cache → preflight →
// single-flight → pool) and reassemble per-item results in input
// order.
//
// Admission is per unique item: when the pool saturates mid-batch,
// the rejected items come back as per-item 429s while their admitted
// siblings run to completion — the batch itself never deadlocks and
// never fails wholesale on one bad or shed item.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		fail(w, http.StatusServiceUnavailable, CodeDraining, "server is draining", nil)
		return
	}
	if r.Method != http.MethodPost {
		fail(w, http.StatusMethodNotAllowed, CodeBadRequest, "POST required", nil)
		return
	}
	tr := reqtrace.FromContext(r.Context())
	sp := tr.Span("decode")
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		tr.Attr(sp, "code", CodeBadRequest)
		tr.End(sp)
		fail(w, http.StatusBadRequest, CodeBadRequest, "request body: "+err.Error(), nil)
		return
	}
	tr.End(sp)
	if len(req.Items) == 0 {
		fail(w, http.StatusBadRequest, CodeBadRequest, "batch needs at least one item", nil)
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		fail(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("batch of %d items exceeds the limit of %d", len(req.Items), s.cfg.MaxBatchItems), nil)
		return
	}
	s.metrics.BatchItems.Add(int64(len(req.Items)))

	// Parse every item inline, grouping the parsed ones by content key
	// so a batch full of duplicates costs one preflight and one
	// emulation. Equal keys get equal preflight verdicts, so a group
	// is rejected or served as a whole.
	//
	// Tracing: every item opens its own "item" span carrying its index.
	// An item that fails to parse terminates its span at parse time
	// with the SB9xx code attached; a duplicate's terminates pointing
	// at the group leader's index (the preflight and emulation spans
	// live under the leader's item span — the batch-level view of
	// single-flight sharing); a leader's stays open across the fan-out
	// and closes when its estimate resolves, with the code attached
	// when preflight rejected the group.
	outs := make([]outcome, len(req.Items))
	type group struct {
		pr   *parsed
		span reqtrace.SpanID // the leader item's span
		idxs []int
	}
	groups := make(map[string]*group)
	var order []string
	for i := range req.Items {
		item := tr.Span("item")
		tr.AttrInt(item, "index", int64(i))
		pr, out := s.parseRequest(tr, item, &req.Items[i])
		if out.status != 0 {
			tr.Attr(item, "code", out.code)
			tr.End(item)
			outs[i] = out
			continue
		}
		g, ok := groups[pr.key]
		if !ok {
			g = &group{pr: pr, span: item}
			groups[pr.key] = g
			order = append(order, pr.key)
		} else {
			tr.AttrInt(item, "deduplicated_into", int64(g.idxs[0]))
			tr.End(item)
		}
		g.idxs = append(g.idxs, i)
	}

	// Fan out one goroutine per unique key. The pool (not the fan-out)
	// bounds actual emulations; single-flight coalesces against other
	// requests in flight, batch or single. The goroutines share the
	// request's trace — its span table is mutex-guarded for exactly
	// this fan-out.
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	var wg sync.WaitGroup
	for _, key := range order {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			out := s.estimate(ctx, tr, g.span, g.pr)
			if out.code == CodeBadModel {
				tr.Attr(g.span, "code", out.code)
			}
			tr.End(g.span)
			for _, i := range g.idxs {
				outs[i] = out
			}
		}(groups[key])
	}
	wg.Wait()
	// A preflight-rejected item counts as failed, never as
	// deduplicated, however many copies of it the batch carries.
	dedup := 0
	for _, g := range groups {
		if outs[g.idxs[0]].code != CodeBadModel {
			dedup += len(g.idxs) - 1
		}
	}

	sp = tr.Span("serialize")
	body, err := marshalBatchResponse(outs, dedup)
	if err != nil {
		fail(w, http.StatusInternalServerError, CodeInternal, "batch encoding: "+err.Error(), nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	tr.End(sp)
}

// marshalBatchResponse renders the batch response by hand so each
// item's report bytes are spliced in verbatim: the report JSON is
// indented, and routing it through json.Marshal as a RawMessage would
// compact and re-escape it, breaking the per-item byte-identity with
// the single endpoint (and with segbus-emu -report-json).
func marshalBatchResponse(outs []outcome, dedup int) ([]byte, error) {
	var buf bytes.Buffer
	served, failed := 0, 0
	buf.WriteString(`{"items":[`)
	for i, out := range outs {
		if i > 0 {
			buf.WriteByte(',')
		}
		head, err := json.Marshal(BatchItem{
			Index:       i,
			Status:      out.status,
			Cache:       out.cache,
			Code:        out.code,
			Error:       out.msg,
			Diagnostics: out.diags,
		})
		if err != nil {
			return nil, err
		}
		if out.status == http.StatusOK {
			served++
			// Splice the verbatim report in before the closing brace.
			buf.Write(head[:len(head)-1])
			buf.WriteString(`,"report":`)
			buf.Write(out.body)
			buf.WriteByte('}')
		} else {
			failed++
			buf.Write(head)
		}
	}
	fmt.Fprintf(&buf, `],"served":%d,"failed":%d,"deduplicated":%d}`, served, failed, dedup)
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}
