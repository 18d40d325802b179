"""Optional live retrieval of an address's transaction history.

The fetcher is feature-gated by configuration: nothing in the pipeline needs
it, and the test suite exercises it only against a local mock endpoint. It
pages through the explorer's ``account txlist`` endpoint, feeding each page
to the JSON parser, and honors a configurable request-rate ceiling.
"""
from __future__ import annotations

import logging
import time

import requests

from .errors import ApiError, NetworkError, RateLimited
from .ingest import parse_etherscan_json
from .txmodel import Address, Transaction

logger = logging.getLogger(__name__)

_RATE_LIMIT_HINTS = ("rate limit", "ratelimit", "max rate")


def _looks_rate_limited(exc: ApiError) -> bool:
    text = f"{exc.message} {exc.payload}".lower()
    return any(hint in text for hint in _RATE_LIMIT_HINTS)


def fetch_address_history(
    address: Address,
    endpoint_url: str,
    api_key: str,
    page_limit: int = 10,
    page_size: int = 100,
    requests_per_second: float = 5.0,
    max_retries: int = 3,
    timeout: float = 10.0,
) -> list[Transaction]:
    """Retrieve up to ``page_limit`` pages of transactions in block order.

    Raises NetworkError on transport failures, RateLimited once retries are
    exhausted, and ApiError on any other error envelope.
    """
    interval = 1.0 / requests_per_second if requests_per_second > 0 else 0.0
    collected: list[Transaction] = []
    last_request = 0.0
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
        attempts = 0
        while True:
            wait = interval - (time.monotonic() - last_request)
            if wait > 0:
                time.sleep(wait)
            try:
                last_request = time.monotonic()
                response = requests.get(endpoint_url, params=params, timeout=timeout)
                response.raise_for_status()
            except requests.RequestException as exc:
                raise NetworkError(f"request for page {page} failed: {exc}") from exc
            try:
                result = parse_etherscan_json(response.content)
                break
            except ApiError as exc:
                if not _looks_rate_limited(exc):
                    raise
                attempts += 1
                if attempts > max_retries:
                    raise RateLimited(exc.message) from None
                retry_after = float(response.headers.get("Retry-After", 1.0))
                logger.warning(
                    "rate limited on page %d; retrying in %.1fs", page, retry_after
                )
                time.sleep(retry_after)
        if result.rejects:
            logger.warning(
                "page %d: %d rows rejected during parse", page, len(result.rejects)
            )
        collected.extend(result.transactions)
        # a short page is the last; a rejected entry still filled its slot
        if len(result.transactions) + len(result.rejects) < page_size:
            break
    return collected
