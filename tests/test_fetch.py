"""Fetcher tests against a local mock endpoint; no real network access."""
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import pytest

from phishgraph import fetch
from phishgraph.errors import ApiError, InvalidConfig, NetworkError, RateLimited
from phishgraph.fetch import MAX_RETRY_AFTER_S, fetch_address_history
from phishgraph.txmodel import Address

FROM_A = "0x" + "ab" * 20
TO_A = "0x" + "cd" * 20


def tx_entry(i: int, block: int) -> dict:
    return {
        "blockNumber": str(block),
        "timeStamp": str(1_680_000_000 + i),
        "hash": f"0x{i:064x}",
        "from": FROM_A,
        "to": TO_A,
        "value": "1000",
        "gas": "21000",
        "gasPrice": "1000000000",
        "gasUsed": "21000",
    }


class MockEtherscan:
    """Serves scripted responses keyed by page number, each with the given
    HTTP status and Retry-After header."""

    def __init__(self, pages: dict[int, dict], fail_first_n_rate_limits: int = 0,
                 retry_after: str = "0.01", status: int = 200):
        self.pages = pages
        self.rate_limit_budget = fail_first_n_rate_limits
        self.retry_after, self.status = retry_after, status
        self.requests: list[dict] = []

        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                params = {k: v[0] for k, v in parse_qs(urlparse(self.path).query).items()}
                server.requests.append(params)
                if server.rate_limit_budget > 0:
                    server.rate_limit_budget -= 1
                    body = {
                        "status": "0",
                        "message": "NOTOK",
                        "result": "Max rate limit reached",
                    }
                else:
                    page = int(params.get("page", 1))
                    body = server.pages.get(
                        page, {"status": "0", "message": "No transactions found", "result": []}
                    )
                payload = json.dumps(body).encode()
                self.send_response(server.status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Retry-After", server.retry_after)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self.httpd = HTTPServer(("127.0.0.1", 0), Handler)
        # a short poll interval keeps shutdown() from waiting out the 0.5 s default
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    def __enter__(self):
        self.thread.start()
        return f"http://127.0.0.1:{self.httpd.server_port}/api"

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()


def ok(entries) -> dict:
    return {"status": "1", "message": "OK", "result": entries}


class TestFetch:
    def test_empty_result(self):
        with MockEtherscan({1: ok([])}) as url:
            txs = fetch_address_history(
                Address(FROM_A), url, "key", requests_per_second=0
            )
        assert len(txs) == 0

    def test_two_pages_in_block_order(self):
        pages = {1: ok([tx_entry(1, block=100)]), 2: ok([tx_entry(2, block=200)])}
        with MockEtherscan(pages) as url:
            txs = fetch_address_history(
                Address(FROM_A), url, "key", page_size=1, requests_per_second=0
            )
        assert txs.block_number.tolist() == [100, 200]

    def test_stops_on_short_page(self):
        pages = {1: ok([tx_entry(1, 100), tx_entry(2, 101)]), 2: ok([tx_entry(3, 102)])}
        with MockEtherscan(pages) as server_url:
            txs = fetch_address_history(
                Address(FROM_A), server_url, "key", page_size=5, requests_per_second=0
            )
        assert len(txs) == 2  # first page was short, so no second request

    def test_full_page_with_rejected_entry_is_not_last(self):
        bad = {**tx_entry(2, 101), "hash": "0xnot-a-hash"}
        pages = {1: ok([tx_entry(1, 100), bad, tx_entry(3, 102)]),
                 2: ok([tx_entry(4, 103), tx_entry(5, 104)])}
        server = MockEtherscan(pages)
        with server as url:
            txs = fetch_address_history(
                Address(FROM_A), url, "key", page_size=3, requests_per_second=0
            )
        assert len(server.requests) == 2
        assert txs.block_number.tolist() == [100, 102, 103, 104]

    def test_respects_page_limit(self):
        pages = {i: ok([tx_entry(i, 100 + i)]) for i in range(1, 10)}
        with MockEtherscan(pages) as url:
            txs = fetch_address_history(
                Address(FROM_A), url, "key", page_limit=3, page_size=1,
                requests_per_second=0,
            )
        assert len(txs) == 3

    def test_error_envelope_raises_api_error(self):
        nok = {"status": "0", "message": "NOTOK", "result": "Invalid API Key"}
        with MockEtherscan({1: nok}) as url:
            with pytest.raises(ApiError):
                fetch_address_history(Address(FROM_A), url, "key", requests_per_second=0)

    def test_rate_limit_retried_then_succeeds(self):
        server = MockEtherscan({1: ok([tx_entry(1, 100)])}, fail_first_n_rate_limits=2)
        with server as url:
            txs = fetch_address_history(
                Address(FROM_A), url, "key", requests_per_second=0, max_retries=3
            )
        assert len(txs) == 1
        assert len(server.requests) == 3

    def test_persistent_rate_limit_raises(self):
        server = MockEtherscan({1: ok([])}, fail_first_n_rate_limits=99)
        with server as url:
            with pytest.raises(RateLimited):
                fetch_address_history(
                    Address(FROM_A), url, "key", requests_per_second=0, max_retries=2
                )

    def test_unreachable_endpoint_raises_network_error(self):
        with pytest.raises(NetworkError):
            fetch_address_history(
                Address(FROM_A), "http://127.0.0.1:9/api", "key",
                requests_per_second=0, timeout=0.2,
            )

    @pytest.mark.parametrize(
        "flags",
        [
            {"page_limit": 0},
            {"page_limit": -3},
            {"page_size": 0},
            {"page_size": -5},
            {"requests_per_second": -1.0},
            {"requests_per_second": float("nan")},
            {"requests_per_second": 1e-300},
        ],
    )
    def test_bad_paging_or_rate_is_invalid_config(self, flags):
        # the endpoint is unreachable: only a check before any request passes
        with pytest.raises(InvalidConfig):
            fetch_address_history(
                Address(FROM_A), "http://127.0.0.1:9/api", "key", timeout=0.2,
                **{"requests_per_second": 0, **flags},
            )

    def test_request_parameters(self):
        server = MockEtherscan({1: ok([])})
        with server as url:
            fetch_address_history(Address(FROM_A), url, "secret", requests_per_second=0)
        params = server.requests[0]
        assert params["module"] == "account"
        assert params["action"] == "txlist"
        assert params["address"] == FROM_A
        assert params["apikey"] == "secret"
        assert params["sort"] == "asc"

    @pytest.mark.parametrize("status", [404, 503])
    def test_http_error_status_raises_network_error(self, status):
        with MockEtherscan({1: ok([tx_entry(1, 100)])}, status=status) as url:
            with pytest.raises(NetworkError, match=str(status)):
                fetch_address_history(Address(FROM_A), url, "key", requests_per_second=0)

    def test_unparsable_endpoint_raises_network_error(self):
        with pytest.raises(NetworkError):
            fetch_address_history(Address(FROM_A), "http://[::1/api", "key",
                                  requests_per_second=0)

    @pytest.mark.parametrize("endpoint", ["file:///etc/hostname", "ftp://x/api", "x/api"])
    def test_non_http_endpoint_is_invalid_config(self, endpoint):
        with pytest.raises(InvalidConfig, match="http or https"):
            fetch_address_history(Address(FROM_A), endpoint, "key", requests_per_second=0)

    def test_endpoint_with_query_keeps_it(self):
        server = MockEtherscan({1: ok([])})
        with server as url:
            fetch_address_history(Address(FROM_A), url + "?chainid=1", "key",
                                  requests_per_second=0)
        assert server.requests[0]["chainid"] == "1"
        assert server.requests[0]["action"] == "txlist"

    def test_first_request_does_not_wait(self, monkeypatch, tmp_path):
        """A slow rate spaces the requests; it does not delay the first one."""
        from phishgraph.cli import main

        sleeps = []
        monkeypatch.setattr(fetch.time, "sleep", sleeps.append)
        server = MockEtherscan({1: ok([tx_entry(1, 100)])})
        with server as url:
            assert main(["fetch", "--address", FROM_A, "--endpoint", url, "--api-key", "k",
                         "--rate", "1e-9", "--out", str(tmp_path / "txs.json")]) == 0
        assert len(server.requests) == 1
        assert sleeps == []

    @pytest.mark.parametrize("header, wait", [
        ("0.01", 0.01),
        ("-1", 0.0),
        ("nan", 1.0),
        ("1e9", MAX_RETRY_AFTER_S),
        ("soon", 1.0),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),   # an HTTP-date in the past
        ("Fri, 01 Jan 2100 00:00:00 GMT", MAX_RETRY_AFTER_S),
    ])
    def test_retry_after_header_parsed_and_clamped(self, header, wait, monkeypatch):
        sleeps = []
        monkeypatch.setattr(fetch.time, "sleep", sleeps.append)
        server = MockEtherscan({1: ok([tx_entry(1, 100)])}, fail_first_n_rate_limits=1,
                               retry_after=header)
        with server as url:
            txs = fetch_address_history(Address(FROM_A), url, "key", requests_per_second=0)
        assert len(txs) == 1 and len(server.requests) == 2
        assert sleeps == [wait]
