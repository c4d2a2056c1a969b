package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"fpsping/internal/service"
)

// rawBytes performs one request with a non-JSON body (or none) and returns
// the raw response body — the binary sibling of raw for the snapshot
// endpoints, sharing its error-envelope handling.
func (c *Client) rawBytes(ctx context.Context, method, path, contentType string, body io.Reader) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, nil, fmt.Errorf("client: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, resp.Header, fmt.Errorf("client: reading %s response: %w", path, err)
	}
	if len(data) > maxResponseBytes {
		return nil, resp.Header, fmt.Errorf("client: %s response over %d bytes", path, maxResponseBytes)
	}
	if resp.StatusCode/100 != 2 {
		var envelope struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &envelope) == nil && envelope.Error != "" {
			msg = envelope.Error
		}
		return data, resp.Header, &APIError{StatusCode: resp.StatusCode, Message: msg}
	}
	return data, resp.Header, nil
}

// CacheDump fetches a snapshot of the daemon's memo cache (GET
// /v1/cache:dump): the binary format memo.Dump writes — versioned,
// CRC-checksummed and keyed by the daemon binary's schema string. Feed it
// back with CacheWarm (same build) or persist it across a restart.
func (c *Client) CacheDump(ctx context.Context) ([]byte, error) {
	data, _, err := c.rawBytes(ctx, http.MethodGet, "/v1/cache:dump", "", nil)
	return data, err
}

// CacheWarm uploads a snapshot into the daemon's memo cache (POST
// /v1/cache:warm). Restoration never clobbers newer state: entries the
// daemon already computed win, and a full cache skips archived entries
// rather than evicting live ones. A corrupt or schema-mismatched snapshot is an
// *APIError with HTTP 400 and leaves the cache untouched.
func (c *Client) CacheWarm(ctx context.Context, snapshot []byte) (service.WarmResult, error) {
	data, _, err := c.rawBytes(ctx, http.MethodPost, "/v1/cache:warm", "application/octet-stream", bytes.NewReader(snapshot))
	if err != nil {
		return service.WarmResult{}, err
	}
	var res service.WarmResult
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("client: decoding /v1/cache:warm response: %w", err)
	}
	return res, nil
}
