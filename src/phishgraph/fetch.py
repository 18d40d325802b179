"""Optional live retrieval of an address's transaction history.

The fetcher is feature-gated by configuration: nothing in the pipeline needs
it, and the test suite exercises it only against a local mock endpoint. It
pages through the explorer's ``account txlist`` endpoint, feeding each page
to the JSON parser, and honors a configurable request-rate ceiling. Requests
go through the standard library's ``urllib``, to ``http`` and ``https``
endpoints only.
"""
from __future__ import annotations

import http.client
import logging
import math
import threading
import time
import urllib.parse
import urllib.request
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime

from .errors import ApiError, InvalidConfig, NetworkError, RateLimited
from .ingest import parse_etherscan_json
from .txmodel import Address, TxColumns

logger = logging.getLogger(__name__)

_RATE_LIMIT_HINTS = ("rate limit", "ratelimit", "max rate")
MAX_RETRY_AFTER_S = 60.0  # the longest wait a Retry-After header can ask for


def _looks_rate_limited(exc: ApiError) -> bool:
    text = f"{exc.message} {exc.payload}".lower()
    return any(hint in text for hint in _RATE_LIMIT_HINTS)


def _retry_after(header: str | None) -> float:
    """Seconds to wait from a Retry-After header, in delay-seconds or as an
    HTTP-date, clamped into [0, MAX_RETRY_AFTER_S]; 1 s when absent or
    unparsable."""
    try:
        delay = float(header)
    except (TypeError, ValueError):
        try:
            when = parsedate_to_datetime(header)
        except (TypeError, ValueError):
            return 1.0
        if when.tzinfo is None:  # a "-0000" zone: UTC, by RFC 5322
            when = when.replace(tzinfo=timezone.utc)
        delay = (when - datetime.now(timezone.utc)).total_seconds()
    if math.isnan(delay):
        return 1.0
    return min(max(delay, 0.0), MAX_RETRY_AFTER_S)


def fetch_address_history(
    address: Address,
    endpoint_url: str,
    api_key: str,
    page_limit: int = 10,
    page_size: int = 100,
    requests_per_second: float = 5.0,
    max_retries: int = 3,
    timeout: float = 10.0,
) -> TxColumns:
    """Retrieve up to ``page_limit`` pages of transactions in block order.

    The first request goes at once; each later one waits until
    ``1 / requests_per_second`` seconds have passed since the one before (a
    rate of 0 means no limit). Raises InvalidConfig, before any request, for
    an endpoint that is not http or https, a page limit or page size below
    one, or a rate that is negative, NaN or so small that its interval
    exceeds the longest wait ``threading.TIMEOUT_MAX``; NetworkError on a
    transport failure, an HTTP 4xx/5xx status or a URL that urlopen cannot
    parse (a ValueError), RateLimited once retries are exhausted, and
    ApiError on any other error envelope.
    """
    if not endpoint_url.lower().startswith(("http://", "https://")):
        raise InvalidConfig(f"endpoint must be an http or https URL: {endpoint_url!r}")
    if page_limit < 1 or page_size < 1:
        raise InvalidConfig(
            f"page limit and page size must be at least 1, not {page_limit} and {page_size}"
        )
    if not requests_per_second >= 0:
        raise InvalidConfig(f"request rate must be non-negative, not {requests_per_second}")
    interval = 1.0 / requests_per_second if requests_per_second > 0 else 0.0
    if interval > threading.TIMEOUT_MAX:
        raise InvalidConfig(
            f"request rate {requests_per_second} asks for a wait of more than "
            f"{threading.TIMEOUT_MAX:.0f} s between requests"
        )
    pages: list[TxColumns] = []
    last_request = -math.inf  # the first request does not wait
    for page in range(1, page_limit + 1):
        params = {
            "module": "account",
            "action": "txlist",
            "address": str(address),
            "page": page,
            "offset": page_size,
            "sort": "asc",
            "apikey": api_key,
        }
        query = urllib.parse.urlencode(params)
        url = f"{endpoint_url}{'&' if '?' in endpoint_url else '?'}{query}"
        attempts = 0
        while True:
            wait = interval - (time.monotonic() - last_request)
            if wait > 0:
                time.sleep(wait)
            try:
                last_request = time.monotonic()
                with urllib.request.urlopen(url, timeout=timeout) as response:
                    body, retry_header = response.read(), response.headers["Retry-After"]
            except (OSError, ValueError, http.client.HTTPException) as exc:
                raise NetworkError(f"request for page {page} failed: {exc}") from exc
            try:
                result = parse_etherscan_json(body)
                break
            except ApiError as exc:
                if not _looks_rate_limited(exc):
                    raise
                attempts += 1
                if attempts > max_retries:
                    raise RateLimited(exc.message, exc.payload) from None
                retry_after = _retry_after(retry_header)
                logger.warning(
                    "rate limited on page %d; retrying in %.1fs", page, retry_after
                )
                time.sleep(retry_after)
        if result.rejects:
            logger.warning(
                "page %d: %d rows rejected during parse", page, len(result.rejects)
            )
        pages.append(result.transactions)
        # a short page is the last; a rejected entry still filled its slot
        if len(result.transactions) + len(result.rejects) < page_size:
            break
    return TxColumns.concat(pages)
