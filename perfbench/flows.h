// Flow files the end-to-end benchmark drives through ApiServer: the
// paper's Appendix A.1 IPL processing flow, and a service-desk explorer
// endpoint over the ticket generator's columns.
#ifndef PERFBENCH_FLOWS_H_
#define PERFBENCH_FLOWS_H_

#include <string>

#include "common/string_util.h"

namespace perfbench {

// Appendix A.1 IPL processing flow, plus a tweet_facts endpoint (date,
// team, state per tweet) and a filter_expression flow. __URL__ is the
// simulated https source; __DIR__ holds the dictionary and CSV files
// (absolute, so a server recovering from its durability directory finds
// them without a base_dir).
inline constexpr const char* kIplFlow = R"(
D:
  ipl_tweets: [
    postedTime => created_at,
    body => text,
    displayName => user.location
  ]
  dim_teams: [team_number, team, team_fullName, sort_order, color]
  team_players: [player, team_fullName, team, player_id]
  lat_long: [state, point_one, point_two, point_three]

D.ipl_tweets:
  source: '__URL__'
  protocol: https
  format: json
D.dim_teams:
  source: '__DIR__/dim_teams.csv'
D.team_players:
  source: '__DIR__/team_players.csv'
D.lat_long:
  source: '__DIR__/lat_long.csv'

F:
  D.players_tweets: D.ipl_tweets | T.players_pipeline | T.players_count
  D.player_tweets: (D.players_tweets, D.team_players) | T.join_player_team
  D.teams_tweets: D.ipl_tweets | T.teams_pipeline | T.teams_count
  D.team_tweets: (D.teams_tweets, D.dim_teams) | T.join_dim_teams
  D.tm_rgn_raw_cnt: D.ipl_tweets | T.teams_pipeline_region | T.teams_regions_count
  D.tm_rgn_tm_dtls: (D.tm_rgn_raw_cnt, D.dim_teams) | T.join_dim_teams_two
  D.team_region_tweets: (D.tm_rgn_tm_dtls, D.lat_long) | T.join_lat_long
  D.tagcloud_tweets_raw: D.ipl_tweets | T.word_date_extraction | T.words_count
  D.tagcloud_tweets: D.tagcloud_tweets_raw | T.topwords
  D.tweet_facts: D.ipl_tweets | T.facts_pipeline | T.facts_project
  D.long_words: D.ipl_tweets | T.word_date_extraction | T.long_words_only | T.long_words_count

D.player_tweets:
  endpoint: true
D.team_tweets:
  endpoint: true
D.team_region_tweets:
  endpoint: true
D.tagcloud_tweets:
  endpoint: true
D.tweet_facts:
  endpoint: true
D.long_words:
  endpoint: true

T:
  players_pipeline:
    parallel: [T.norm_ipldate, T.extract_players]
  teams_pipeline:
    parallel: [T.norm_ipldate, T.extract_teams]
  teams_pipeline_region:
    parallel: [T.norm_ipldate, T.extract_location, T.extract_teams]
  facts_pipeline:
    parallel: [T.norm_ipldate, T.extract_location, T.extract_teams]
  word_date_extraction:
    parallel: [T.norm_ipldate, T.extract_words]
  norm_ipldate:
    type: map
    operator: date
    transform: postedTime
    input_format: 'E MMM dd HH:mm:ss Z yyyy'
    output_format: yyyy-MM-dd
    output: date
  extract_players:
    type: map
    operator: extract
    transform: body
    dict: '__DIR__/players.txt'
    output: player
  extract_teams:
    type: map
    operator: extract
    transform: body
    dict: '__DIR__/teams.csv'
    output: team
  extract_location:
    type: map
    operator: extract_location
    transform: displayName
    match: city
    country: IND
    output: state
  extract_words:
    type: map
    operator: extract_words
    transform: body
    output: word
  players_count:
    type: groupby
    groupby: [date, player]
  teams_count:
    type: groupby
    groupby: [date, team]
  teams_regions_count:
    type: groupby
    groupby: [date, team, state]
  words_count:
    type: groupby
    groupby: [date, word]
  topwords:
    type: topn
    groupby: [date]
    orderby_column: [count DESC]
    limit: 20
  facts_project:
    type: project
    project: [date, team, state]
  long_words_only:
    type: filter_by
    filter_expression: 'length(word) >= 4'
  long_words_count:
    type: groupby
    groupby: [word]
  join_player_team:
    type: join
    left: players_tweets by player
    right: team_players by player
    join_condition: left outer
    project:
      players_tweets_date: date
      players_tweets_player: player
      players_tweets_count: noOfTweets
      team_players_team: team
      team_players_team_fullName: team_fullName
      team_players_player_id: player_id
  join_dim_teams:
    type: join
    left: teams_tweets by team
    right: dim_teams by team_fullName
    join_condition: left outer
    project:
      teams_tweets_date: date
      teams_tweets_team: team_fullName
      teams_tweets_count: noOfTweets
      dim_teams_team: team
      dim_teams_sort_order: sort_order
      dim_teams_color: color
  join_dim_teams_two:
    type: join
    left: tm_rgn_raw_cnt by team
    right: dim_teams by team_fullName
    join_condition: left outer
    project:
      tm_rgn_raw_cnt_date: date
      tm_rgn_raw_cnt_team: team_fullName
      tm_rgn_raw_cnt_state: state
      tm_rgn_raw_cnt_count: noOfTweets
      dim_teams_team: team
      dim_teams_sort_order: sort_order
      dim_teams_color: color
  join_lat_long:
    type: join
    left: tm_rgn_tm_dtls by state
    right: lat_long by state
    join_condition: left outer
    project:
      tm_rgn_tm_dtls_team_fullName: team_fullName
      tm_rgn_tm_dtls_state: state
      tm_rgn_tm_dtls_date: date
      tm_rgn_tm_dtls_noOfTweets: noOfTweets
      tm_rgn_tm_dtls_team: team
      tm_rgn_tm_dtls_sort_order: sort_order
      tm_rgn_tm_dtls_color: color
      lat_long_point_one: point_one
      lat_long_point_two: point_two
      lat_long_point_three: point_three
)";

// Service-desk explorer: the ticket file projected to the columns the
// widgets query.
inline constexpr const char* kTicketFlow = R"(
D:
  tickets: [ticket_id, created, category, priority, description, resolution_days]

D.tickets:
  source: '__FILE__'

F:
  D.explorer: D.tickets | T.explorer_columns

D.explorer:
  endpoint: true

T:
  explorer_columns:
    type: project
    project: [created, category, priority, description, resolution_days]
)";

inline std::string Fill(std::string text,
                        std::initializer_list<std::pair<const char*,
                                                        std::string>> subs) {
  for (const auto& [key, value] : subs) {
    text = shareinsights::ReplaceAll(text, key, value);
  }
  return text;
}

}  // namespace perfbench

#endif  // PERFBENCH_FLOWS_H_
