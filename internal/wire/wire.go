// Package wire is the HTTP/JSON contract between the kvserver front-end and
// the client package: the request/response shapes of every /v1 endpoint and
// the error taxonomy that round-trips the store's typed errors over the
// network.
//
// The taxonomy is a closed set of string codes. The server maps a store
// error to (HTTP status, code, optional owner hint) with FromError; the
// client maps the decoded body back to the canonical sentinel errors, so
// errors.Is(err, rdmaagreement.ErrKeyMoved) works identically whether the
// store was called in-process or across a socket. Status codes alone are NOT
// the contract — two different 503s (load shed vs draining) carry different
// codes and different client behavior — which is why every error response
// has a JSON body.
//
// The taxonomy's closure is checked by this package's tests: every code is
// in the class table of TestTaxonomyIsClassified (store, admission or
// anonymous), TestTaxonomyRoundTrip carries each one from its producer to a
// client decode and checks its class's Sentinel and Retryable obligations,
// and TestCodesAreNamedNotSpelt refuses a code's value spelt as a literal.
package wire

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"rdmaagreement"
	"rdmaagreement/internal/types"
)

// Error codes: the closed taxonomy. Codes, not HTTP statuses, are the
// contract the client dispatches on.
const (
	// CodeKeyMoved: the key's range is owned by another shard (ErrKeyMoved);
	// the Owner field names it when the refusing server knows. Retryable —
	// ideally at the owner's endpoint.
	CodeKeyMoved = "key_moved"
	// CodeLeaseLost: the command was displaced by a leadership change without
	// committing (ErrLeaseLost); provably safe to resubmit. Retryable.
	CodeLeaseLost = "lease_lost"
	// CodeOverloaded: the server shed the request to protect itself (global
	// in-flight bound exceeded). Retryable after the Retry-After hint.
	CodeOverloaded = "overloaded"
	// CodeConnBusy: this connection exceeded its per-connection in-flight
	// bound; the rest of the server may be fine. Retryable.
	CodeConnBusy = "conn_busy"
	// CodeDraining: the server is shutting down gracefully; in-flight
	// requests finish but new ones are refused. Retryable elsewhere.
	CodeDraining = "draining"
	// CodeRebalanceInProgress: a different rebalance is still incomplete
	// (ErrRebalanceInProgress). Not retryable blindly; the pending rebalance
	// must be retried to completion first.
	CodeRebalanceInProgress = "rebalance_in_progress"
	// CodeClosed: the store is closed (ErrLogClosed). Terminal here.
	CodeClosed = "closed"
	// CodeHalted: a shard group halted on an unresolvable slot
	// (ErrLogHalted). Terminal.
	CodeHalted = "halted"
	// CodeDeadline: the request's deadline or cancellation fired inside the
	// store (context.DeadlineExceeded / Canceled).
	CodeDeadline = "deadline"
	// CodeBadRequest: malformed request (empty key, undecodable body, an
	// invalid shard name).
	CodeBadRequest = "bad_request"
	// CodeInternal: anything the taxonomy does not name.
	CodeInternal = "internal"
)

// Error is the JSON body of every non-2xx response.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Owner names the shard that now owns the key (CodeKeyMoved only, and
	// only when the refusing side knows) so the client re-routes directly.
	Owner string `json:"owner,omitempty"`
	// RetryAfterMS mirrors the Retry-After header for JSON-only clients.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

func (e *Error) Error() string {
	if e.Owner != "" {
		return fmt.Sprintf("%s: %s (owner %s)", e.Code, e.Message, e.Owner)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Retryable reports whether a request failing with code may be retried
// as-is (possibly at a different endpoint) without risking a double apply:
// key_moved and lease_lost both carry the store's provably-did-not-commit
// contract, and shed/draining requests were never admitted.
func Retryable(code string) bool {
	switch code {
	case CodeKeyMoved, CodeLeaseLost, CodeOverloaded, CodeConnBusy, CodeDraining:
		return true
	}
	return false
}

// Sentinel returns the canonical in-process error a code round-trips to, or
// nil for codes with no root-package counterpart (overloaded, draining, …):
// those are server conditions, not store conditions, and the client package
// owns their sentinels.
func Sentinel(code string) error {
	switch code {
	case CodeKeyMoved:
		return rdmaagreement.ErrKeyMoved
	case CodeLeaseLost:
		return rdmaagreement.ErrLeaseLost
	case CodeRebalanceInProgress:
		return rdmaagreement.ErrRebalanceInProgress
	case CodeClosed:
		return rdmaagreement.ErrLogClosed
	case CodeHalted:
		return rdmaagreement.ErrLogHalted
	}
	return nil
}

// FromError classifies a store error into the wire taxonomy: HTTP status
// plus typed body. The owner hint rides along when the error is a structured
// KeyMovedError.
func FromError(err error) (int, *Error) {
	var moved *rdmaagreement.KeyMovedError
	switch {
	case errors.As(err, &moved):
		// 421 Misdirected Request: this server (shard) is not the right
		// destination for the key — exactly what the status was minted for.
		return http.StatusMisdirectedRequest, &Error{Code: CodeKeyMoved, Message: err.Error(), Owner: moved.Owner}
	case errors.Is(err, rdmaagreement.ErrKeyMoved):
		return http.StatusMisdirectedRequest, &Error{Code: CodeKeyMoved, Message: err.Error()}
	case errors.Is(err, rdmaagreement.ErrLeaseLost):
		return http.StatusServiceUnavailable, &Error{Code: CodeLeaseLost, Message: err.Error()}
	case errors.Is(err, rdmaagreement.ErrRebalanceInProgress):
		return http.StatusConflict, &Error{Code: CodeRebalanceInProgress, Message: err.Error()}
	case errors.Is(err, types.ErrInvalidConfig):
		// The request named something the store refuses outright, such as
		// a shard name that is not valid UTF-8.
		return http.StatusBadRequest, &Error{Code: CodeBadRequest, Message: err.Error()}
	case errors.Is(err, rdmaagreement.ErrLogClosed):
		return http.StatusServiceUnavailable, &Error{Code: CodeClosed, Message: err.Error()}
	case errors.Is(err, rdmaagreement.ErrLogHalted):
		return http.StatusInternalServerError, &Error{Code: CodeHalted, Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, &Error{Code: CodeDeadline, Message: err.Error()}
	}
	return http.StatusInternalServerError, &Error{Code: CodeInternal, Message: err.Error()}
}

// tenantSep joins tenant and key into the store-level key. A unit separator
// cannot appear in a URL path segment uninvited, so tenants cannot collide
// by crafting keys ("a"+"b/c" vs "a/b"+"c").
const tenantSep = "\x1f"

// DefaultTenant namespaces requests that carry no X-KV-Tenant header.
const DefaultTenant = "default"

// TenantKey is the store-level key of a tenant's key: every tenant gets a
// disjoint namespace inside the one sharded store, and ring routing hashes
// the combined key, so one tenant's hot keys spread like anyone else's.
func TenantKey(tenant, key string) string {
	if tenant == "" {
		tenant = DefaultTenant
	}
	return tenant + tenantSep + key
}

// Request/response shapes of the /v1 endpoints.

// PutRequest is the body of PUT /v1/kv/{key}.
type PutRequest struct {
	Value string `json:"value"`
}

// PutResponse reports where the committed write landed.
type PutResponse struct {
	Shard string `json:"shard"`
	Index uint64 `json:"index"`
}

// GetResponse is the body of GET /v1/kv/{key} (stale by default,
// linearizable with ?linearizable=1).
type GetResponse struct {
	Value string `json:"value,omitempty"`
	Found bool   `json:"found"`
	Shard string `json:"shard,omitempty"`
}

// RingResponse is the body of GET /v1/ring: the ring geometry a client needs
// to mirror routing, plus the endpoint serving each shard (one address for
// every shard on a single-process server).
type RingResponse struct {
	Shards    []string          `json:"shards"`
	VNodes    int               `json:"vnodes"`
	Endpoints map[string]string `json:"endpoints,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	rdmaagreement.ShardedStats
	ForeignEntries int64 `json:"foreign_entries"`
}

// AdminResponse acknowledges an admin shard operation.
type AdminResponse struct {
	Shard  string   `json:"shard"`
	Shards []string `json:"shards"`
}
