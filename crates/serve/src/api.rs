//! The versioned wire API: error schema and endpoint inventory.
//!
//! Every 4xx/5xx answer from `r2d2 serve` **and** `r2d2 dispatch` carries
//! one machine-readable JSON body:
//!
//! ```json
//! {"error": {"code": "<kebab-slug>", "message": "...", "retry_after_s": 1}}
//! ```
//!
//! `code` is a stable kebab-case slug callers match on (never parse
//! `message`, which is free-form prose for humans); `retry_after_s` is
//! present only when the server also sends a `Retry-After` header (429/503
//! backpressure). The full code inventory is documented in `DESIGN.md`
//! § "Dispatch tier & the /v1 wire API" and spot-checked by the
//! error-schema golden test in `crates/serve/tests/service.rs`.
//!
//! Paths are frozen under the `/v1` prefix; an unprefixed path answers
//! `404 not-found` like any other unknown route.
//! `scripts/check_api_surface.py` fails CI if a handler is ever registered
//! outside `/v1`.

use r2d2_harness::json::{self, Value};

use crate::http::{Request, Response};

/// Every `(method, canonical path)` the service answers, `{id}` standing in
/// for a 16-hex job id. Machine-checked by `scripts/check_api_surface.py`:
/// all paths must live under `/v1`.
pub const ENDPOINTS: &[(&str, &str)] = &[
    ("POST", "/v1/jobs"),
    ("POST", "/v1/jobs/batch"),
    ("GET", "/v1/jobs/{id}"),
    ("DELETE", "/v1/jobs/{id}"),
    ("GET", "/v1/jobs/{id}/progress"),
    ("GET", "/v1/healthz"),
    ("GET", "/v1/metrics"),
    ("POST", "/v1/shutdown"),
];

/// A typed API error — the decoded form of the unified error body. Servers
/// build one and render it with [`error_response`]; clients decode one from
/// any 4xx/5xx body with [`ApiError::from_response`] and match on
/// [`ApiError::code`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status the error travelled with.
    pub status: u16,
    /// Stable kebab-case error class (`queue-full`, `unknown-job`, ...).
    pub code: String,
    /// Human-oriented description; never meant for `match`ing.
    pub message: String,
    /// Backoff hint in seconds, when the server sent one (it mirrors the
    /// `Retry-After` header on 429/503).
    pub retry_after_s: Option<u64>,
}

impl ApiError {
    /// Decode the unified error body out of a response. Returns `None` for
    /// non-error statuses or bodies that do not carry the schema.
    pub fn from_response(status: u16, body: &Value) -> Option<ApiError> {
        if status < 400 {
            return None;
        }
        let err = body.get("error")?;
        Some(ApiError {
            status,
            code: err.get("code")?.as_str()?.to_string(),
            message: err
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            retry_after_s: err.get("retry_after_s").and_then(Value::as_u64),
        })
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HTTP {} [{}] {}", self.status, self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

/// The unified error body as a JSON value (no `retry_after_s`).
pub fn error_body(code: &str, message: &str) -> Value {
    error_body_retry(code, message, None)
}

/// The unified error body as a JSON value, with an optional backoff hint.
pub fn error_body_retry(code: &str, message: &str, retry_after_s: Option<u64>) -> Value {
    let mut fields = vec![("code", json::s(code)), ("message", json::s(message))];
    if let Some(s) = retry_after_s {
        fields.push(("retry_after_s", json::int(s)));
    }
    json::obj(vec![("error", json::obj(fields))])
}

/// Build a complete 4xx/5xx [`Response`] carrying the unified error body.
pub fn error_response(status: u16, code: &str, message: &str) -> Response {
    Response::json(status, &error_body(code, message))
}

/// [`error_response`] plus a `Retry-After: <secs>` header and the matching
/// `retry_after_s` body field — the 429/503 backpressure shape.
pub fn error_response_retry(
    status: u16,
    code: &str,
    message: &str,
    retry_after_s: u64,
) -> Response {
    Response::json(
        status,
        &error_body_retry(code, message, Some(retry_after_s)),
    )
    .header("Retry-After", &retry_after_s.to_string())
}

/// The answer to a request no route matched: `404`, or `405` for a method
/// the API does not use.
pub fn no_route(req: &Request) -> Response {
    match req.method.as_str() {
        "GET" | "POST" | "DELETE" => {
            error_response(404, "not-found", &format!("no route for {}", req.path))
        }
        m => error_response(
            405,
            "method-not-allowed",
            &format!("method {m} is not supported"),
        ),
    }
}

/// The job id of a `GET /v1/jobs/<id>/progress` request — the one endpoint
/// whose handler writes its own chunked response on both tiers.
pub fn progress_job_id(req: &Request) -> Option<&str> {
    if req.method != "GET" {
        return None;
    }
    req.path
        .strip_prefix("/v1/jobs/")
        .and_then(|rest| rest.strip_suffix("/progress"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_body_roundtrips_through_the_typed_client() {
        let resp = error_response_retry(429, "queue-full", "queue full; retry later", 1);
        assert_eq!(resp.status, 429);
        assert_eq!(
            resp.headers,
            vec![("Retry-After".to_string(), "1".to_string())]
        );
        let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let err = ApiError::from_response(429, &v).expect("schema decodes");
        assert_eq!(err.code, "queue-full");
        assert_eq!(err.retry_after_s, Some(1));

        let plain = error_response(404, "unknown-job", "no such job");
        let v = json::parse(std::str::from_utf8(&plain.body).unwrap()).unwrap();
        let err = ApiError::from_response(404, &v).unwrap();
        assert_eq!(err.code, "unknown-job");
        assert_eq!(err.retry_after_s, None);
        // 2xx bodies never decode as errors.
        assert!(ApiError::from_response(200, &v).is_none());
    }

    #[test]
    fn every_registered_endpoint_is_versioned() {
        for (_, path) in ENDPOINTS {
            assert!(path.starts_with("/v1/"), "{path} escaped the /v1 prefix");
        }
    }
}
