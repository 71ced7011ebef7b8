package telemetry

// dashboardHTML is the entire dashboard: one self-contained page with no
// external assets (no CDN fonts, scripts or styles), so it renders on an
// air-gapped cluster node. It subscribes to /events for push updates and
// falls back to polling /api/v1/run and /api/v1/lbsteps if the stream drops.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>cloudlb live telemetry</title>
<style>
  body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 2rem; background: #111; color: #ddd; }
  h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin-top: 1.6rem; }
  a { color: #7ab8ff; }
  .cards { display: flex; gap: 1rem; flex-wrap: wrap; }
  .card { background: #1c1c1c; border: 1px solid #333; border-radius: 6px; padding: .8rem 1.2rem; min-width: 9rem; }
  .card .v { font-size: 1.5rem; color: #fff; }
  .card .k { font-size: .75rem; color: #888; text-transform: uppercase; }
  #bar { background: #1c1c1c; border: 1px solid #333; border-radius: 6px; height: 1.2rem; overflow: hidden; margin: .8rem 0; }
  #fill { background: #3a7d44; height: 100%; width: 0; transition: width .3s; }
  table { border-collapse: collapse; font-size: .85rem; }
  th, td { padding: .25rem .7rem; border-bottom: 1px solid #2a2a2a; text-align: right; }
  th { color: #888; }
  .pe { display: inline-block; height: .8rem; background: #4a6fa5; margin-right: 1px; vertical-align: middle; }
  .pe.hot { background: #a54a4a; }
  #status { color: #888; font-size: .8rem; }
  #log { background: #1c1c1c; border: 1px solid #333; border-radius: 6px; padding: .6rem .8rem;
         font-size: .75rem; max-height: 14rem; overflow-y: auto; white-space: pre-wrap; word-break: break-all; }
  #log .warn { color: #e0b050; } #log .err { color: #e06050; }
</style>
</head>
<body>
<h1>cloudlb live telemetry <span id="status"></span></h1>
<div class="cards">
  <div class="card"><div class="v" id="done">–</div><div class="k">scenarios done</div></div>
  <div class="card"><div class="v" id="inflight">–</div><div class="k">in flight</div></div>
  <div class="card"><div class="v" id="eps">–</div><div class="k">events/sec</div></div>
  <div class="card"><div class="v" id="eta">–</div><div class="k">eta</div></div>
  <div class="card"><div class="v" id="p50">–</div><div class="k">wall p50 / p95 (s)</div></div>
</div>
<div id="bar"><div id="fill"></div></div>
<h2>latest LB step — per-PE load after migration (Eq. 1 view) <span id="peloadrun"></span></h2>
<div id="peload">no LB steps yet</div>
<h2>LB steps</h2>
<table id="steps"><thead><tr>
<th>run</th><th>step</th><th>time</th><th>window</th><th>planned</th><th>applied</th><th>strategy&nbsp;s</th><th>max&nbsp;load&nbsp;before</th><th>max&nbsp;load&nbsp;after</th>
</tr></thead><tbody></tbody></table>
<h2>log — structured records (enable with -log)</h2>
<div id="log">no log records yet</div>
<p><a href="/metrics">/metrics</a> · <a href="/api/v1/run">/api/v1/run</a> · <a href="/api/v1/lbsteps">/api/v1/lbsteps</a> · <a href="/api/v1/jobs">/api/v1/jobs</a> · <a href="/api/v1/logs">/api/v1/logs</a> · <a href="/debug/pprof/">/debug/pprof/</a></p>
<script>
"use strict";
var seen = 0;
function fmt(x, d) { return Number.isFinite(x) ? x.toFixed(d === undefined ? 1 : d) : "–"; }
function setText(id, v) { document.getElementById(id).textContent = v; }
function renderRun(s) {
  setText("done", s.scenarios_done + " / " + s.scenarios_total);
  setText("inflight", s.scenarios_in_flight);
  setText("eps", s.events_per_sec >= 1e6 ? fmt(s.events_per_sec / 1e6) + "M" : fmt(s.events_per_sec / 1e3) + "k");
  setText("eta", s.finished ? "done" : fmt(s.eta_seconds, 0) + "s");
  var h = s.scenario_wall_seconds || {};
  setText("p50", fmt(h.p50, 2) + " / " + fmt(h.p95, 2));
  var pct = s.scenarios_total > 0 ? 100 * s.scenarios_done / s.scenarios_total : 0;
  document.getElementById("fill").style.width = pct + "%";
  setText("status", s.finished ? "(run finished)" : "");
}
// runOf names the run a step belongs to: its labels other than rts
// (scenario=<batch index>, fig7=<row>), empty for a lone run.
function runOf(st) {
  return (st.labels || []).filter(function (l) { return l.Name !== "rts"; })
    .map(function (l) { return l.Name + "=" + l.Value; }).join(" ");
}
function renderStep(st) {
  var run = runOf(st);
  setText("peloadrun", "(" + (run ? run + ", " : "") + "step " + st.step + ")");
  var after = st.pe_load_after || [];
  var max = after.reduce(function (a, b) { return Math.max(a, b); }, 0);
  var div = document.getElementById("peload");
  div.innerHTML = "";
  after.forEach(function (v) {
    var b = document.createElement("span");
    b.className = "pe" + (max > 0 && v > 0.9 * max ? " hot" : "");
    b.style.width = (max > 0 ? 4 + 120 * v / max : 4) + "px";
    b.title = v.toFixed(3) + " s";
    div.appendChild(b);
  });
  var tb = document.querySelector("#steps tbody");
  var tr = document.createElement("tr");
  var b4 = (st.pe_load_before || []).reduce(function (a, b) { return Math.max(a, b); }, 0);
  [run, st.step, fmt(st.time, 2), fmt(st.wall_since_lb, 2), st.moves_planned, st.moves_applied,
   fmt(st.strategy_wall, 4), fmt(b4, 3), fmt(max, 3)].forEach(function (v) {
    var td = document.createElement("td"); td.textContent = v; tr.appendChild(td);
  });
  tb.insertBefore(tr, tb.firstChild);
  while (tb.children.length > 50) tb.removeChild(tb.lastChild);
}
function pollSteps() {
  fetch("/api/v1/lbsteps?since=" + seen).then(function (r) { return r.json(); }).then(function (d) {
    (d.steps || []).forEach(renderStep);
    seen = d.total;
  }).catch(function () {});
}
function pollRun() {
  fetch("/api/v1/run").then(function (r) { return r.json(); }).then(renderRun).catch(function () {});
}
var logCount = 0;
function renderLog(line) {
  var div = document.getElementById("log");
  if (logCount === 0) div.textContent = "";
  var rec = {};
  try { rec = JSON.parse(line); } catch (e) {}
  var el = document.createElement("div");
  if (rec.level === "WARN") el.className = "warn";
  if (rec.level === "ERROR") el.className = "err";
  el.textContent = line;
  div.appendChild(el);
  while (div.children.length > 50) div.removeChild(div.firstChild);
  div.scrollTop = div.scrollHeight;
  logCount++;
}
var es = new EventSource("/events");
es.addEventListener("progress", function (e) { renderRun(JSON.parse(e.data)); });
es.addEventListener("done", function (e) { renderRun(JSON.parse(e.data)); });
es.addEventListener("log", function (e) { renderLog(e.data); });
es.addEventListener("lbstep", function (e) {
  var ev = JSON.parse(e.data);
  if (ev.index >= seen) { renderStep(ev.step); seen = ev.index + 1; }
});
es.onerror = function () { setText("status", "(stream lost — polling)"); };
pollRun(); pollSteps();
fetch("/api/v1/logs").then(function (r) { return r.text(); }).then(function (t) {
  t.split("\n").forEach(function (l) { if (l) renderLog(l); });
}).catch(function () {});
setInterval(pollRun, 2000); setInterval(pollSteps, 2000);
</script>
</body>
</html>
`
