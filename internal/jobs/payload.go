package jobs

import (
	"bytes"
	"encoding/json"
)

// This file is the zero-copy serving path. A completed job's Result is
// marshaled exactly once — with the name field blanked — into a
// resultPayload; every response built from it afterwards (Submit hits,
// Get, ?wait=true, SSE terminal events, the disk write-behind) splices
// the response's display name into those bytes instead of re-walking
// the Result struct through encoding/json. The splice output is
// byte-identical to json.Marshal of the same Result carrying that name:
// the name overlay is the ONLY difference between any two serves of one
// cached result, which is the documented cached/name overlay contract.

// resultPayload is a Result's canonical JSON body with Name == "" plus
// the offset where a name field splices in. Immutable once built.
type resultPayload struct {
	body []byte
	// off points just past `{"specHash":"…",` — the position where the
	// encoder would have emitted `"name":…,` had the name been set.
	off int
}

// newResultPayload marshals res (name blanked) and locates the splice
// point. It returns nil when the payload cannot be built or verified —
// callers treat nil as "marshal per response", so this path can only
// lose speed, never correctness.
func newResultPayload(res *Result) *resultPayload {
	if res == nil {
		return nil
	}
	nameless := *res
	nameless.Name = ""
	body, err := json.Marshal(&nameless)
	if err != nil {
		return nil
	}
	prefix := append(appendJSONString([]byte(`{"specHash":`), res.SpecHash), ',')
	if !bytes.HasPrefix(body, prefix) {
		return nil
	}
	return &resultPayload{body: body, off: len(prefix)}
}

// namedLen is the exact byte length appendNamed will produce for name,
// letting callers size a buffer in one allocation.
func (p *resultPayload) namedLen(name string) int {
	if name == "" {
		return len(p.body)
	}
	// `"name":` + worst-case escaped string + `,`; escaping can expand a
	// byte to 6 (`\u00xx`), so over-reserve rather than count precisely.
	return len(p.body) + len(`"name":`) + 2 + 6*len(name) + 1
}

// appendNamed appends the payload with name spliced in, byte-identical
// to json.Marshal of the same Result with Name == name.
func (p *resultPayload) appendNamed(dst []byte, name string) []byte {
	if name == "" {
		return append(dst, p.body...)
	}
	dst = append(dst, p.body[:p.off]...)
	dst = append(dst, `"name":`...)
	dst = appendJSONString(dst, name)
	dst = append(dst, ',')
	return append(dst, p.body[p.off:]...)
}

// MarshalJSON renders the status through AppendJSON, so the encoded
// form is identical whether a caller goes through encoding/json or the
// server's pooled-buffer fast path.
func (st JobStatus) MarshalJSON() ([]byte, error) {
	return st.AppendJSON(make([]byte, 0, 256))
}

// AppendJSON appends the status's JSON encoding to dst and returns the
// extended slice. The output is byte-for-byte what encoding/json
// produces for the equivalent plain struct (same fields, same tags, no
// custom marshaler) — enforced by TestJobStatusEncodingMatchesStruct —
// but a cached-result hit costs a few appends and one payload splice
// instead of a reflective walk over the whole Result.
func (st JobStatus) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = appendJSONString(dst, st.ID)
	dst = append(dst, `,"specHash":`...)
	dst = appendJSONString(dst, st.SpecHash)
	dst = append(dst, `,"state":`...)
	dst = appendJSONString(dst, string(st.State))
	if st.Cached != "" {
		dst = append(dst, `,"cached":`...)
		dst = appendJSONString(dst, string(st.Cached))
	}
	if st.Coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	if st.Result != nil {
		dst = append(dst, `,"result":`...)
		if st.payload != nil {
			dst = st.payload.appendNamed(dst, st.Result.Name)
		} else {
			b, err := json.Marshal(st.Result)
			if err != nil {
				return nil, err
			}
			dst = append(dst, b...)
		}
	}
	if st.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, st.Error)
	}
	if st.Retryable {
		dst = append(dst, `,"retryable":true`...)
	}
	if st.Progress != nil {
		dst = append(dst, `,"progress":`...)
		b, err := json.Marshal(st.Progress)
		if err != nil {
			return nil, err
		}
		dst = append(dst, b...)
	}
	return append(dst, '}'), nil
}

// appendJSONString appends s as a JSON string literal, byte-identical to
// json.Marshal(s). A string made only of printable ASCII the standard
// encoder emits verbatim — every ID, hash, state, tier and default display
// name — is quoted in place; anything else goes through json.Marshal, so
// parity holds by construction (and is still swept across the full byte
// range by TestAppendJSONStringParity).
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
