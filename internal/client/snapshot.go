package client

import (
	"context"
	"net/http"

	"fpsping/internal/service"
)

// CacheDump fetches a snapshot of the daemon's memo cache (GET
// /v1/cache:dump): the binary format memo.Dump writes — versioned,
// CRC-checksummed and keyed by the daemon binary's schema string. Feed it
// back with CacheWarm (same build) or persist it across a restart.
func (c *Client) CacheDump(ctx context.Context) ([]byte, error) {
	res, err := c.call(ctx, http.MethodGet, "/v1/cache:dump", "", nil)
	if err != nil {
		return nil, err
	}
	return res.Body, nil
}

// CacheWarm uploads a snapshot into the daemon's memo cache (POST
// /v1/cache:warm). Restoration never clobbers newer state: entries the
// daemon already computed win, and a full cache skips archived entries
// rather than evicting live ones. A corrupt or schema-mismatched snapshot is an
// *APIError with HTTP 400 and leaves the cache untouched.
func (c *Client) CacheWarm(ctx context.Context, snapshot []byte) (service.WarmResult, error) {
	var out service.WarmResult
	res, err := c.call(ctx, http.MethodPost, "/v1/cache:warm", "application/octet-stream", snapshot)
	if err == nil {
		err = decode("/v1/cache:warm", res.Body, &out)
	}
	return out, err
}
